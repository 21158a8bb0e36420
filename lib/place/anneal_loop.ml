open Twmc_geometry
open Twmc_netlist
module Schedule = Twmc_sa.Schedule
module Obs = Twmc_obs.Ctx
module Attr = Twmc_obs.Attr
module Metrics = Twmc_obs.Metrics

type temp_record = {
  temperature : float;
  cost : float;
  c1 : float;
  c2_raw : float;
  c3 : float;
  acceptance : float;
  window : float * float;
}

type stage =
  | Stage1 of { replica : int option }
  | Refine of { iteration : int option; final : bool }

type stop = Min_span | Frozen | T_floor | Interrupted

type outcome = {
  stats : Moves.stats;
  trace : temp_record list;
  temperatures : int;
  stop : stop;
  interrupted : bool;
}

let expanded_area p =
  let total = ref 0 in
  for ci = 0 to Netlist.n_cells (Placement.netlist p) - 1 do
    List.iter
      (fun r -> total := !total + Rect.area r)
      (Placement.expanded_tiles p ci)
  done;
  !total

let avg_effective_cell_area p =
  float_of_int (expanded_area p)
  /. float_of_int (max 1 (Netlist.n_cells (Placement.netlist p)))

(* The quench tail: escape window as a fraction of the core, loop cap,
   loops allowed without a C2 improvement, and the minimum-window loops
   run before escape loops start to interleave. *)
let escape_fraction = 0.20
let max_quench_loops = 150
let patience = 20
let cold_after = 12

(* Aggregate move-class accept counters into the registry.  Counter adds
   commute, so the totals are deterministic even when best-of-K replicas
   record concurrently. *)
let record_move_stats obs ~prefix (s : Moves.stats) =
  if Obs.metrics_on obs then begin
    let m = obs.Obs.metrics in
    let add name v = Metrics.add (Metrics.counter m (prefix ^ name)) v in
    add ".moves.attempts" s.Moves.attempts;
    add ".moves.displacements" s.Moves.displacements;
    add ".moves.aspect_rescues" s.Moves.aspect_rescues;
    add ".moves.orient_changes" s.Moves.orient_changes;
    add ".moves.interchanges" s.Moves.interchanges;
    add ".moves.interchange_rescues" s.Moves.interchange_rescues;
    add ".moves.pin_moves" s.Moves.pin_moves;
    add ".moves.variant_changes" s.Moves.variant_changes;
    for c = 0 to Moves.n_classes - 1 do
      let cls = Moves.class_name c in
      add (Printf.sprintf ".class.%s.attempts" cls) s.Moves.class_attempts.(c);
      add (Printf.sprintf ".class.%s.accepts" cls) s.Moves.class_accepts.(c)
    done
  end

(* One per-class efficacy point per finished anneal: attempts, accepts and
   summed Δcost for every move class of the trial ladder — the trace-side
   source for [Health]'s move-class tables. *)
let record_class_points obs ~prefix ~tag (s : Moves.stats) =
  if Obs.tracing obs then
    for c = 0 to Moves.n_classes - 1 do
      Obs.point obs
        ~name:(prefix ^ ".classes")
        ~attrs:
          (tag
          @ [ ("cls", Attr.Str (Moves.class_name c));
              ("attempts", Attr.Int s.Moves.class_attempts.(c));
              ("accepts", Attr.Int s.Moves.class_accepts.(c));
              ("dcost", Attr.Float s.Moves.class_dcost.(c)) ])
        ()
    done

let accepted (s : Moves.stats) =
  s.Moves.displacements + s.Moves.interchanges + s.Moves.orient_changes
  + s.Moves.aspect_rescues

let run ?(should_stop = fun () -> false) ?(obs = Obs.disabled) ~rng ~limiter
    ~schedule ~t_start ~t_floor stage p =
  let prefix, refine, tag_key, index =
    match stage with
    | Stage1 { replica } -> ("stage1", false, "replica", replica)
    | Refine { iteration; _ } -> ("stage2", true, "iteration", iteration)
  in
  let tag =
    match index with Some i -> [ (tag_key, Attr.Int i) ] | None -> []
  in
  let temp_name = prefix ^ ".temp" in
  let nl = Placement.netlist p in
  let prm = Placement.params p in
  let stats = Moves.make_stats () in
  let ctx = Moves.make_ctx ~refine ~placement:p ~limiter ~stats () in
  let a = prm.Params.a_c * Netlist.n_cells nl in
  let stopped = ref false in
  (* Cooperative timeout: poll the guard every 128 moves so a wall-clock
     budget cuts the anneal off mid-inner-loop, not at the next
     temperature. *)
  let inner ctx temp =
    let i = ref 0 in
    while !i < a && not !stopped do
      Moves.generate ctx rng ~temp;
      incr i;
      if !i land 127 = 0 && should_stop () then stopped := true
    done
  in
  let observe r =
    Twmc_obs.Flight_recorder.note ?i:index ~f:r.temperature temp_name;
    if Obs.tracing obs then
      Obs.point obs ~name:temp_name
        ~attrs:
          (tag
          @ [ ("t", Attr.Float r.temperature); ("cost", Attr.Float r.cost);
              ("c1", Attr.Float r.c1); ("c2", Attr.Float r.c2_raw);
              ("c3", Attr.Float r.c3);
              ("acceptance", Attr.Float r.acceptance) ]
          @
          match stage with
          | Stage1 _ ->
              let wx, wy = r.window in
              [ ("wx", Attr.Float wx); ("wy", Attr.Float wy);
                (* The schedule's Eqn 19-21 driver, sampled per temperature
                   so [Health] can watch the estimator converge. *)
                ("est", Attr.Float (avg_effective_cell_area p)) ]
          | Refine _ -> [])
        ()
  in
  let trace = ref [] and n_temps = ref 0 in
  let frozen = ref 0 and last_cost = ref nan in
  (* Past the formal stopping rule: the paper's T0 is effectively zero, and
     a placement must end overlap-free (stage 2: for the routed channel
     widths to be realizable).  The minimum-window loops reuse [ctx]; the
     escape loops use a constant window (rho = 1 makes it
     temperature-independent).  At near-zero T they only accept improving
     hops, so they unjam without churning. *)
  let quench temp =
    let core = Placement.core p in
    let escape =
      Moves.make_ctx ~refine ~placement:p ~stats
        ~limiter:
          (Range_limiter.create ~rho:1.0 ~t_inf:10.0
             ~wx_inf:(escape_fraction *. float_of_int (Rect.width core))
             ~wy_inf:(escape_fraction *. float_of_int (Rect.height core))
             ~min_window:prm.Params.min_window)
        ()
    in
    let best = ref infinity and since_improved = ref 0 and loops = ref 0 in
    let temp = ref temp in
    while
      !loops < max_quench_loops
      && Placement.c2_raw p > 0.0
      && !since_improved < patience
      && not !stopped
    do
      inner
        (if !loops >= cold_after && !loops mod 2 = 1 then escape else ctx)
        !temp;
      Placement.recompute_all p;
      let c2 = Placement.c2_raw p in
      if c2 < !best then begin
        best := c2;
        since_improved := 0
      end
      else incr since_improved;
      temp := 0.6 *. !temp;
      incr loops
    done;
    n_temps := !n_temps + !loops
  in
  let rec loop temp =
    incr n_temps;
    let before = accepted stats in
    inner ctx temp;
    (* Correct any float drift in the incremental accumulators. *)
    Placement.recompute_all p;
    let r =
      { temperature = temp;
        cost = Placement.total_cost p;
        c1 = Placement.c1 p;
        c2_raw = Placement.c2_raw p;
        c3 = Placement.c3 p;
        acceptance = float_of_int (accepted stats - before) /. float_of_int a;
        window = Range_limiter.window limiter ~temp }
    in
    trace := r :: !trace;
    observe r;
    if r.cost = !last_cost then incr frozen else frozen := 0;
    last_cost := r.cost;
    let rule =
      match stage with
      | Refine { final = true; _ } -> if !frozen >= 3 then Some Frozen else None
      | Stage1 _ | Refine _ ->
          if Range_limiter.at_min_span limiter ~temp then Some Min_span
          else None
    in
    if !stopped then Interrupted
    else
      match rule with
      | Some rule ->
          quench temp;
          rule
      | None ->
          let temp' = Schedule.next schedule temp in
          if temp' < t_floor then begin
            quench temp';
            T_floor
          end
          else loop temp'
  in
  let stop =
    match stage with
    | Stage1 _ ->
        Obs.span obs ~name:"stage1.anneal"
          ~attrs:
            (if Obs.tracing obs then
               tag
               @ [ ("cells", Attr.Int (Netlist.n_cells nl));
                   ("t_inf", Attr.Float t_start) ]
             else [])
          (fun () -> loop t_start)
    | Refine _ -> loop t_start
  in
  record_move_stats obs ~prefix stats;
  record_class_points obs ~prefix ~tag stats;
  { stats;
    trace = List.rev !trace;
    temperatures = !n_temps;
    stop;
    interrupted = !stopped }
