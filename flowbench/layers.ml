(* Per-layer attribution of one traced solve.

   Two sources, neither of which adds instrumentation to the library:

   - the spans, points and counters the flow already emits through an
     observability context with a memory sink and a live metrics registry
     (layer times and work counts over the whole solve);
   - probes: timed calls from this file into a layer's public functions,
     applied to the state the solve produced (per-call time and minor-heap
     words, which the trace cannot give). *)

module Sink = Twmc_obs.Sink
module Metrics = Twmc_obs.Metrics
module Clock = Twmc_obs.Clock
module Netlist = Twmc_netlist.Netlist
module Params = Twmc_place.Params
module Placement = Twmc_place.Placement
module Moves = Twmc_place.Moves
module Range_limiter = Twmc_place.Range_limiter
module Dynamic_area = Twmc_estimator.Dynamic_area
module Extract = Twmc_channel.Extract
module Graph = Twmc_channel.Graph
module Pin_map = Twmc_channel.Pin_map
module Steiner = Twmc_route.Steiner
module Rect = Twmc_geometry.Rect

let s_of_ns = Clock.s_of_ns

(* ------------------------------------------------------------ spans *)

type span = { id : int; name : string; parent : int; b : int; mutable e : int }

let spans events =
  let tbl = Hashtbl.create 64 in
  List.iter
    (function
      | Sink.Span_begin { id; parent; name; t_ns; _ } ->
          Hashtbl.replace tbl id { id; name; parent; b = t_ns; e = t_ns }
      | Sink.Span_end { id; t_ns; _ } -> (
          match Hashtbl.find_opt tbl id with
          | Some s -> s.e <- t_ns
          | None -> ())
      | Sink.Point _ -> ())
    events;
  Hashtbl.fold (fun _ s acc -> s :: acc) tbl []
  |> List.sort (fun a b -> compare a.id b.id)

let span_s spans name =
  List.fold_left
    (fun acc s -> if s.name = name then acc +. s_of_ns (s.e - s.b) else acc)
    0.0 spans

let point_times events name =
  List.filter_map
    (function
      | Sink.Point { name = n; t_ns; _ } when n = name -> Some t_ns
      | _ -> None)
    events

type stage2_split = {
  channel_s : float;  (** Parent span start to its ["route"] start. *)
  phase1_s : float;  (** ["route"] start to the first ["route.net"] point. *)
  phase2_s : float;  (** Last ["route.net"] point to the ["route"] end. *)
  refine_anneal_s : float;  (** ["route"] end to its ["stage2.refine"] end. *)
  nets : int;  (** Nets enumerated over all passes. *)
}

(* Router phase 1 ends where the per-net points are emitted (after the
   parallel join); phase 2 ([Assign.run]) runs between the last per-net
   point and the ["route.assign"] point that closes the span.  Channel
   definition ([Extract]/[Graph]/[Pin_map]) is what precedes the route
   span inside its parent; the refinement anneal is what follows it. *)
let stage2_split events spans =
  let net_ts = point_times events "route.net" in
  let by_id = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.replace by_id s.id s) spans;
  List.fold_left
    (fun acc s ->
      if s.name <> "route" then acc
      else
        let nets = List.filter (fun t -> t >= s.b && t <= s.e) net_ts in
        let p1_end = match nets with t :: _ -> t | [] -> s.e in
        let p2_start = List.fold_left max p1_end nets in
        let parent = Hashtbl.find_opt by_id s.parent in
        let channel =
          match parent with Some p -> s_of_ns (s.b - p.b) | None -> 0.0
        in
        let anneal =
          match parent with
          | Some p when p.name = "stage2.refine" -> s_of_ns (p.e - s.e)
          | _ -> 0.0
        in
        { channel_s = acc.channel_s +. channel;
          phase1_s = acc.phase1_s +. s_of_ns (p1_end - s.b);
          phase2_s = acc.phase2_s +. s_of_ns (s.e - p2_start);
          refine_anneal_s = acc.refine_anneal_s +. anneal;
          nets = acc.nets + List.length nets })
    { channel_s = 0.0; phase1_s = 0.0; phase2_s = 0.0; refine_anneal_s = 0.0;
      nets = 0 }
    spans

(* ---------------------------------------------------------- metrics *)

let counter reg name = Metrics.counter_value (Metrics.counter reg name)

(* Summed over the seven move classes and both annealing stages. *)
let class_total reg what =
  List.fold_left
    (fun acc stage ->
      let sum = ref 0 in
      for c = 0 to Moves.n_classes - 1 do
        sum :=
          !sum
          + counter reg
              (Printf.sprintf "%s.class.%s.%s" stage (Moves.class_name c) what)
      done;
      acc + !sum)
    0 [ "stage1"; "stage2" ]

let class_count reg cls what =
  counter reg (Printf.sprintf "stage1.class.%s.%s" cls what)
  + counter reg (Printf.sprintf "stage2.class.%s.%s" cls what)

let series_sum reg name =
  List.fold_left ( +. ) 0.0 (Metrics.series_values (Metrics.series reg name))

let series_mean reg name =
  match Metrics.series_values (Metrics.series reg name) with
  | [] -> 0.0
  | l -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)

let mean_alternatives reg =
  let h = Metrics.histogram reg "route.alternatives_per_net" in
  match Metrics.histogram_count h with
  | 0 -> 0.0
  | n -> Metrics.histogram_sum h /. float_of_int n

(* --------------------------------------------------------------- GC *)

type gc = {
  minor_collections : int;
  major_collections : int;
  minor_words : float;
  promoted_words : float;
}

(* [Gc.quick_stat] counts minor words only up to each domain's last minor
   collection, so two identical solves can read differently; at one domain
   the exact [Gc.minor_words] of the caller is used instead. *)
let gc_during ~domains f =
  let s0 = Gc.quick_stat () and w0 = Gc.minor_words () in
  let x = f () in
  let w1 = Gc.minor_words () and s1 = Gc.quick_stat () in
  ( x,
    { minor_collections = s1.Gc.minor_collections - s0.Gc.minor_collections;
      major_collections = s1.Gc.major_collections - s0.Gc.major_collections;
      minor_words =
        (if domains = 1 then w1 -. w0
         else s1.Gc.minor_words -. s0.Gc.minor_words);
      promoted_words = s1.Gc.promoted_words -. s0.Gc.promoted_words } )

(* ----------------------------------------------------------- probes *)

let timed_words f =
  let w0 = Gc.minor_words () in
  let t0 = Clock.now_ns () in
  f ();
  let dt = s_of_ns (Clock.now_ns () - t0) in
  (dt, Gc.minor_words () -. w0)

(* One phase-1 enumeration per net on the channel graph of [p]: minor words
   allocated per net by [Steiner.routes].  Read-only over [p]. *)
let route_words_per_net p =
  let prm = Placement.params p in
  let nl = Placement.netlist p in
  let graph =
    Graph.build ~track_spacing:nl.Netlist.track_spacing (Extract.of_placement p)
  in
  let tasks = Pin_map.tasks graph p in
  let words =
    List.fold_left
      (fun acc (task : Pin_map.net_task) ->
        let terminals =
          List.map (fun t -> t.Pin_map.candidates) task.Pin_map.terminals
        in
        let _, w =
          timed_words (fun () ->
              ignore
                (Sys.opaque_identity
                   (Steiner.routes ~budget_factor:prm.Params.route_effort graph
                      ~m:prm.Params.m_routes ~terminals)))
        in
        acc +. w)
      0.0 tasks
  in
  words /. float_of_int (max 1 (List.length tasks))

(* The stage-1 estimator of [p], installing a fresh one (sized to the
   current core, as stage 1 sizes it) when stage 2 left a static
   expansion table in place. *)
let dynamic_estimator p =
  match Placement.expander p with
  | Placement.Dynamic d -> d
  | Placement.Static _ | Placement.No_expansion ->
      let core = Placement.core p in
      let d =
        Dynamic_area.create ~beta:(Placement.params p).Params.beta
          ~core_w:(Rect.width core) ~core_h:(Rect.height core)
          (Placement.netlist p)
      in
      Placement.set_expander p (Placement.Dynamic d);
      d

let recompute_all p ~reps =
  let dt, w =
    timed_words (fun () ->
        for _ = 1 to reps do
          Placement.recompute_all p
        done)
  in
  let n = float_of_int reps in
  (dt /. n *. 1e6, w /. n)

let expand_tile_ns p d ~rounds =
  let n = Netlist.n_cells (Placement.netlist p) in
  let tiles =
    Array.init n (fun ci ->
        (Placement.cell_variant p ci, Placement.abs_tiles p ci))
  in
  let calls = ref 0 in
  let dt, _ =
    timed_words (fun () ->
        for _ = 1 to rounds do
          Array.iteri
            (fun ci (variant, ts) ->
              List.iter
                (fun r ->
                  ignore
                    (Sys.opaque_identity
                       (Dynamic_area.expand_tile d ~cell:ci ~variant r));
                  incr calls)
                ts)
            tiles
        done)
  in
  dt /. float_of_int (max 1 !calls) *. 1e9

(* [calls] stage-1 moves (all move classes enabled, dynamic estimator) at
   temperature [temp], mutating [p]. *)
let generate p ~t_inf ~temp ~seed ~calls =
  let prm = Placement.params p in
  let limiter =
    Range_limiter.of_core ~rho:prm.Params.rho ~t_inf ~core:(Placement.core p)
      ~min_window:prm.Params.min_window
  in
  let ctx =
    Moves.make_ctx ~placement:p ~limiter ~stats:(Moves.make_stats ()) ()
  in
  let rng = Twmc_sa.Rng.create ~seed in
  let dt, w =
    timed_words (fun () ->
        for _ = 1 to calls do
          Moves.generate ctx rng ~temp
        done)
  in
  let n = float_of_int calls in
  (dt /. n *. 1e6, w /. n)
