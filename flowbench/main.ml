(* flowbench — the repository's end-to-end benchmark (see README.md).

     dune exec --root . -- ./flowbench/main.exe \
       --workload flow-p1 --seed 1 --seconds 30 --trace 0

   One workload per invocation.  The workload's circuit is written out as
   .twn text and parsed back, so the flow sees only what a user's file
   would give it; --seed picks the annealing seeds.  Every solve is checked
   by the QA oracles.

   --trace 0 solves a fixed number of times (about --seconds worth) and
   reports the end-to-end metrics; --trace 1 solves once untraced and once
   through a memory-sink observability context and reports the per-layer
   metrics.
   Either way the last stdout line is one JSON object
   {"correct", "attempted", "failed", "metrics"}; the line before it
   carries the run metadata.  --selftest checks that the jobs=1 layer
   counts repeat exactly. *)

module Netlist = Twmc_netlist.Netlist
module Parser = Twmc_netlist.Parser
module Writer = Twmc_netlist.Writer
module Lint = Twmc_robust.Lint
module Diagnostic = Twmc_robust.Diagnostic
module Pool = Twmc_util.Domain_pool
module Params = Twmc_place.Params
module Placement = Twmc_place.Placement
module Stage1 = Twmc_place.Stage1
module Flow = Twmc.Flow
module Stage2 = Twmc.Stage2
module Router = Twmc_route.Global_router
module Graph = Twmc_channel.Graph
module Extract = Twmc_channel.Extract
module Pin_map = Twmc_channel.Pin_map
module Oracle = Twmc_qa.Oracle
module Fingerprint = Twmc_qa.Fingerprint
module Obs = Twmc_obs.Ctx
module Sink = Twmc_obs.Sink
module Metrics = Twmc_obs.Metrics
module Clock = Twmc_obs.Clock
module Rect = Twmc_geometry.Rect

(* ------------------------------------------------------- workloads *)

type kind =
  | Full_flow  (** [Flow.run_resilient], what [twmc flow] calls. *)
  | Place_only  (** [Stage1.run], what [twmc place] calls. *)

type workload = {
  name : string;
  circuit : string;  (** A [Twmc_workload.Circuits] name. *)
  a_c : int;
  route_effort : int;
  jobs : int;
  replicas : int;
  kind : kind;
  nominal_s : float;  (** About one solve's seconds, for {!solves_per_run}. *)
}

(* Why these three: see README.md.  flow-p1 is router-bound, place-i1 is
   the annealing hot path with no router, multistart-j2 runs the same
   layers as flow-p1 on two domains.  The efforts are scaled down from the
   CLI defaults so that a run averages many trajectories. *)
let workloads =
  [ { name = "flow-p1"; circuit = "p1"; a_c = 4; route_effort = 4; jobs = 1;
      replicas = 1; kind = Full_flow; nominal_s = 5.0 };
    { name = "place-i1"; circuit = "i1"; a_c = 20;
      route_effort = Params.default.Params.route_effort; jobs = 1;
      replicas = 1; kind = Place_only; nominal_s = 3.5 };
    { name = "multistart-j2"; circuit = "p1"; a_c = 4; route_effort = 4;
      jobs = 2; replicas = 2; kind = Full_flow; nominal_s = 4.0 } ]

let params w ~seed =
  { Params.default with
    Params.a_c = w.a_c; route_effort = w.route_effort; seed }

(* ----------------------------------------------------------- timing *)

let timed f =
  let t0 = Clock.now_ns () in
  let x = f () in
  (x, Clock.s_of_ns (Clock.now_ns () - t0))

(* Processor time of the whole process, every domain, user plus system.
   Unlike wall time, it leaves out the time a virtual CPU waited for the
   host (steal time) and the time other processes of the machine ran. *)
let cpu_timed f =
  let c0 = Sys.time () in
  let x, wall = timed f in
  (x, wall, Sys.time () -. c0)

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* ------------------------------------------------------------ setup *)

(* The circuit is fixed per workload (the paper-sized synthetic replica
   [Circuits.netlist] builds by default); the run's seed drives the
   annealing.  Across generated replicas of one circuit, solve time and
   TEIL spread too widely for a run-to-run bound (see README.md). *)
let input_text w = Writer.to_string (Twmc_workload.Circuits.netlist w.circuit)

type setup = {
  parse_s : float;
  lint_s : float;
  spawn_s : float;  (** [Domain_pool.create ~jobs] plus its shutdown. *)
}

let setup_once w text =
  let nl, parse_s =
    timed (fun () -> Parser.parse_string ~file:(w.name ^ ".twn") text)
  in
  let diags, lint_s = timed (fun () -> Lint.netlist nl) in
  if Diagnostic.fatal ~strict:false diags <> [] then
    failwith "generated netlist fails lint";
  let (), spawn_s =
    timed (fun () -> Pool.shutdown (Pool.create ~jobs:w.jobs ()))
  in
  (nl, { parse_s; lint_s; spawn_s })

(* Set-up takes a millisecond or two, and on a shared machine the speed
   can wander by tens of percent within a second.  So set-up is repeated
   in batches spread over the whole run, and the medians over all
   repetitions are kept. *)
let setup_batch w text = List.init 50 (fun _ -> snd (setup_once w text))

type setups = {
  setup_s : float;
  med_parse_s : float;
  med_lint_s : float;
  med_spawn_s : float;
}

let summarize l =
  let med f = median (List.map f l) in
  { setup_s = med (fun s -> s.parse_s +. s.lint_s +. s.spawn_s);
    med_parse_s = med (fun s -> s.parse_s);
    med_lint_s = med (fun s -> s.lint_s);
    med_spawn_s = med (fun s -> s.spawn_s) }

(* Calls [f i netlist] for [i < calls], with a set-up batch before the
   first call and after each one.  The netlist is the first set-up's; the
   others are dropped at once, so they do not swell the heap. *)
let with_setups w ~calls f =
  let text = input_text w in
  let nl, first = setup_once w text in
  let batches = ref (first :: setup_batch w text) in
  let results =
    List.init calls (fun i ->
        let r = f i nl in
        batches := setup_batch w text @ !batches;
        r)
  in
  (nl, results, summarize !batches)

(* ----------------------------------------------------- solve + check *)

type solved = Flowed of Flow.resilient_result | Placed of Stage1.result

let solve ?(obs = Obs.disabled) w ~seed nl =
  let params = params w ~seed in
  match w.kind with
  | Full_flow ->
      Flowed
        (Flow.run_resilient ~params ~seed ~jobs:w.jobs ~replicas:w.replicas
           ~obs nl)
  | Place_only ->
      Placed (Stage1.run ~params ~obs ~rng:(Twmc_sa.Rng.create ~seed) nl)

type outcome = {
  solved : solved;
  solve_s : float;  (** Wall clock. *)
  solve_cpu_s : float;  (** {!cpu_timed}. *)
  check_s : float;
  problems : string list;  (** Empty when the solve passed every check. *)
  fingerprint : string;
  teil : float;
  chip_area : float;
}

let oracle_problems = List.map (Format.asprintf "%a" Oracle.pp_failure)

(* Fingerprint first: the placement oracles perturb and restore state. *)
let check solved =
  match solved with
  | Flowed rr -> (
      match rr.Flow.flow with
      | None ->
          let status = Flow.status_to_string rr.Flow.status in
          ("", [ "no result: " ^ status ], 0.0, 0.0)
      | Some r ->
          let fp = Fingerprint.flow r in
          let status =
            if rr.Flow.status = Flow.Clean then []
            else [ "status " ^ Flow.status_to_string rr.Flow.status ]
          in
          let route =
            match r.Flow.stage2.Stage2.final_route with
            | Some _ -> []
            | None -> [ "no final route" ]
          in
          ( fp,
            status @ route @ oracle_problems (Oracle.check_flow r),
            r.Flow.teil_final,
            float_of_int r.Flow.area_final ))
  | Placed r ->
      let fp = Fingerprint.placement r.Stage1.placement in
      let interrupted =
        if r.Stage1.interrupted then [ "interrupted" ] else []
      in
      let oracles = Oracle.check_placement r.Stage1.placement in
      ( fp,
        interrupted @ oracle_problems oracles,
        r.Stage1.teil,
        float_of_int (Rect.area r.Stage1.chip) )

let solve_and_check ?obs w ~seed nl =
  Gc.full_major ();
  let solved, solve_s, solve_cpu_s =
    cpu_timed (fun () -> solve ?obs w ~seed nl)
  in
  let (fingerprint, problems, teil, chip_area), check_s =
    timed (fun () -> check solved)
  in
  { solved; solve_s; solve_cpu_s; check_s; problems; fingerprint; teil;
    chip_area }

let stage1_of = function
  | Flowed { Flow.flow = Some r; _ } -> Some r.Flow.stage1
  | Flowed _ -> None
  | Placed r -> Some r

let final_placement = function
  | Flowed { Flow.flow = Some r; _ } -> Some r.Flow.stage2.Stage2.placement
  | Flowed _ -> None
  | Placed r -> Some r.Stage1.placement

let final_route = function
  | Flowed { Flow.flow = Some r; _ } -> r.Flow.stage2.Stage2.final_route
  | Flowed _ | Placed _ -> None

(* Routed length [L] of a placement-only solve: one global-routing pass
   over the stage-1 placement, outside [solve_s].  The pass runs at the
   lowest enumeration budget: at the default budget routing i1 takes longer
   than annealing it, for a length within 2% of the cheap one. *)
let routed_length p =
  let prm = Placement.params p in
  let nl = Placement.netlist p in
  let graph =
    Graph.build ~track_spacing:nl.Netlist.track_spacing (Extract.of_placement p)
  in
  let route =
    Router.route ~m:prm.Params.m_routes ~budget_factor:1
      ~rng:(Twmc_sa.Rng.create ~seed:prm.Params.seed)
      ~graph ~tasks:(Pin_map.tasks graph p) ()
  in
  float_of_int route.Router.total_length

(* --------------------------------------------------------- metadata *)

let read_file path =
  In_channel.with_open_bin path In_channel.input_all

(* The checkout the benchmark runs in need not be a git repository: the
   commit is read from .git when present, and the library sources are
   digested either way so two runs of different code never share an id. *)
let commit () =
  try
    let head = String.trim (read_file ".git/HEAD") in
    match String.index_opt head ' ' with
    | Some i when String.sub head 0 i = "ref:" ->
        let ref_ = String.sub head (i + 1) (String.length head - i - 1) in
        String.trim (read_file (Filename.concat ".git" ref_))
    | _ -> head
  with Sys_error _ -> "unknown"

let source_md5 () =
  let rec files dir =
    Sys.readdir dir |> Array.to_list |> List.sort compare
    |> List.concat_map (fun f ->
           let p = Filename.concat dir f in
           if Sys.is_directory p then files p
           else if
             Filename.check_suffix p ".ml" || Filename.check_suffix p ".mli"
           then [ p ]
           else [])
  in
  try
    files "lib"
    |> List.map (fun p -> p ^ ":" ^ Digest.to_hex (Digest.file p))
    |> String.concat "\n" |> Digest.string |> Digest.to_hex
  with Sys_error _ -> "unknown"

let json_str s = "\"" ^ Twmc_obs.Attr.json_escape s ^ "\""

let json_num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let print_meta w ~seed ~seconds ~trace ~netlist ~solves =
  let fields =
    [ ("workload", json_str w.name);
      ("seed", string_of_int seed);
      ("seconds", string_of_int seconds);
      ("trace", string_of_int trace);
      ("solves", string_of_int solves);
      ("a_c", string_of_int w.a_c);
      ("jobs", string_of_int w.jobs);
      ("replicas", string_of_int w.replicas);
      ("nproc", string_of_int (Domain.recommended_domain_count ()));
      ( "ocamlrunparam",
        match Sys.getenv_opt "OCAMLRUNPARAM" with
        | None -> "null"
        | Some v -> json_str v );
      ("ocaml", json_str Sys.ocaml_version);
      ("commit", json_str (commit ()));
      ("lib_md5", json_str (source_md5 ()));
      ("netlist", json_str netlist.Netlist.name);
      ("netlist_md5", json_str (Fingerprint.netlist netlist)) ]
  in
  print_endline
    ("{\"meta\": {"
    ^ String.concat ", "
        (List.map (fun (k, v) -> json_str k ^ ": " ^ v) fields)
    ^ "}}")

let print_result ~attempted ~failed metrics =
  let m =
    List.map
      (fun (name, unit, v) ->
        Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_str name)
          (json_num v) (json_str unit))
      metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \
     \"metrics\": {%s}}\n%!"
    (failed = 0) attempted failed (String.concat ", " m)

let report_problems w (o : outcome) =
  List.iter
    (fun p -> Printf.eprintf "%s: check failed: %s\n%!" w.name p)
    o.problems

(* ------------------------------------------------ untraced: end to end *)

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1048576.0

(* Solves per run: one per nominal solve length in [seconds].  The count
   depends only on the arguments, never on how fast the code runs, so a
   parent and a change average exactly the same annealing trajectories.
   [solve_s] is the mean of their processor times ({!cpu_timed}): solve
   time differs between trajectories (the quench tail, the channel graphs
   routed), and a shared machine's speed wanders from second to second;
   many short solves average both out. *)
let solves_per_run w ~seconds =
  max 1 (int_of_float (float_of_int seconds /. w.nominal_s))

(* The i-th solve of a run anneals from its own seed. *)
let solve_seed ~seed i = (seed * 1000) + i

let mean l = List.fold_left ( +. ) 0.0 l /. float_of_int (max 1 (List.length l))

(* What a run keeps of each solve: scalars only, so the heap peak is one
   solve's, whatever the number of solves. *)
type sample = {
  time : float;
  final_teil : float;
  final_area : float;
  route_length : float;  (** nan for a placement-only solve. *)
  clean : bool;
}

let end_to_end w ~seed ~seconds =
  (* A placement-only run routes its first solve's placement at the end,
     after the heap peak is read. *)
  let first_placement = ref None in
  let netlist, samples, st =
    with_setups w ~calls:(solves_per_run w ~seconds) (fun i nl ->
        let o = solve_and_check w ~seed:(solve_seed ~seed i) nl in
        Printf.eprintf
          "%s: solve %.3f s processor, %.3f s wall, check %.3f s, teil %.0f\n%!"
          w.name o.solve_cpu_s o.solve_s o.check_s o.teil;
        report_problems w o;
        let route_length =
          match o.solved with
          | Flowed _ -> (
              match final_route o.solved with
              | Some r -> float_of_int r.Router.total_length
              | None -> 0.0)
          | Placed r ->
              if i = 0 then first_placement := Some r.Stage1.placement;
              nan
        in
        { time = o.solve_cpu_s; final_teil = o.teil; final_area = o.chip_area;
          route_length;
          clean = o.problems = [] })
  in
  let attempted = List.length samples in
  let failed = List.length (List.filter (fun s -> not s.clean) samples) in
  let peak_heap_mb = peak_heap_mb () in
  let route_lengths, route_s =
    timed (fun () ->
        match !first_placement with
        | Some p -> [ routed_length p ]
        | None -> List.map (fun s -> s.route_length) samples)
  in
  let times = List.map (fun s -> s.time) samples in
  Printf.eprintf
    "%s: setup %.6f s (parse %.6f lint %.6f spawn %.6f), solve mean %.3f s \
     processor, route %.3f s\n%!"
    w.name st.setup_s st.med_parse_s st.med_lint_s st.med_spawn_s (mean times)
    route_s;
  print_meta w ~seed ~seconds ~trace:0 ~netlist ~solves:attempted;
  print_result ~attempted ~failed
    [ ("solve_s", "s", mean times);
      ("setup_s", "s", st.setup_s);
      ("teil", "grid", mean (List.map (fun s -> s.final_teil) samples));
      ("chip_area", "grid2", mean (List.map (fun s -> s.final_area) samples));
      ("route_length", "grid", mean route_lengths);
      ("peak_heap_mb", "MiB", peak_heap_mb);
      ( "clean_frac",
        "ratio",
        float_of_int (attempted - failed) /. float_of_int attempted ) ]

(* ---------------------------------------------------- traced: layers *)

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* One traced solve of [nl] and the per-layer metrics it yields, then the
   probes on the state it produced.  [base] is the untraced solve at the
   same seed, for the fidelity check and the tracing overhead. *)
let traced w ~seed ~nl ~(st : setups) ~(base : outcome) =
  let sink = Sink.memory () and reg = Metrics.create () in
  let obs = Obs.create ~sink ~metrics:reg () in
  Gc.full_major ();
  let (solved, solve_s), gc =
    Layers.gc_during ~domains:w.jobs (fun () ->
        timed (fun () -> solve ~obs w ~seed nl))
  in
  let (fingerprint, problems, _, _), check_s = timed (fun () -> check solved) in
  let problems =
    if fingerprint = base.fingerprint then problems
    else "traced fingerprint differs from untraced" :: problems
  in
  let events = Sink.memory_events sink in
  let spans = Layers.spans events in
  let split = Layers.stage2_split events spans in
  let stage1_s =
    Layers.span_s spans
      (match w.kind with Full_flow -> "stage1" | Place_only -> "stage1.anneal")
  in
  let stage2_s = Layers.span_s spans "stage2" in
  let explained =
    stage1_s +. split.Layers.channel_s +. split.Layers.phase1_s
    +. split.Layers.phase2_s +. split.Layers.refine_anneal_s
  in
  Printf.eprintf
    "%s: traced solve %.3f s = stage1 %.3f + channel %.3f + route phase1 \
     %.3f + phase2 %.3f + refine anneal %.3f + unexplained %.3f\n%!"
    w.name solve_s stage1_s split.Layers.channel_s split.Layers.phase1_s
    split.Layers.phase2_s split.Layers.refine_anneal_s (solve_s -. explained);
  let generate_calls =
    float_of_int
      (Layers.counter reg "stage1.moves.attempts"
      + Layers.counter reg "stage2.moves.attempts")
  in
  let trials = float_of_int (Layers.class_total reg "attempts") in
  let accepts = float_of_int (Layers.class_total reg "accepts") in
  let pin_trials = float_of_int (Layers.class_count reg "pin" "attempts") in
  let s1 = stage1_of solved in
  let stage2_temps =
    match solved with
    | Flowed { Flow.flow = Some r; _ } -> List.length r.Flow.stage2.Stage2.trace
    | Flowed _ | Placed _ -> 0
  in
  let route = final_route solved in
  let route_int f =
    match route with Some r -> float_of_int (f r) | None -> 0.0
  in
  let passes = float_of_int (Layers.counter reg "route.passes") in
  (* Probes last: the generate probe moves cells. *)
  let probe_names =
    [ ("place.generate_us", "us"); ("place.alloc_words_per_generate", "words");
      ("place.recompute_all_us", "us"); ("place.recompute_all_words", "words");
      ("estimator.expand_tile_ns", "ns");
      ("route.phase1_alloc_words_per_net", "words") ]
  in
  let probe_values =
    match (final_placement solved, s1) with
    | Some p, Some s1 ->
        let words_per_net =
          if w.kind = Full_flow then Layers.route_words_per_net p else 0.0
        in
        let d = Layers.dynamic_estimator p in
        let rc_us, rc_words = Layers.recompute_all p ~reps:200 in
        let tile_ns = Layers.expand_tile_ns p d ~rounds:2000 in
        let temp =
          match s1.Stage1.trace with
          | [] -> s1.Stage1.t_inf
          | tr -> (List.nth tr (List.length tr / 2)).Stage1.temperature
        in
        let gen_us, gen_words =
          Layers.generate p ~t_inf:s1.Stage1.t_inf ~temp ~seed ~calls:20000
        in
        [ gen_us; gen_words; rc_us; rc_words; tile_ns; words_per_net ]
    | _ -> List.map (fun _ -> 0.0) probe_names
  in
  let probes =
    List.map2 (fun (name, unit) v -> (name, unit, v)) probe_names probe_values
  in
  let metrics =
    [ ("place.stage1_s", "s", stage1_s);
      ("place.generate_calls", "count", generate_calls);
      ("place.trials", "count", trials);
      ("place.trials_per_generate", "ratio", ratio trials generate_calls);
      ("place.accept_ratio", "ratio", ratio accepts trials);
      ("place.pin_trial_share", "ratio", ratio pin_trials trials);
      ( "place.residual_overlap",
        "grid2",
        match s1 with Some r -> r.Stage1.residual_overlap | None -> 0.0 );
      ( "sa.temperatures",
        "count",
        float_of_int
          ((match s1 with Some r -> r.Stage1.temperatures_visited | None -> 0)
          + stage2_temps) );
      ("route.phase1_s", "s", split.Layers.phase1_s);
      ( "route.phase1_ms_per_net",
        "ms",
        ratio (split.Layers.phase1_s *. 1000.0)
          (float_of_int split.Layers.nets) );
      ("route.alternatives_per_net", "count", Layers.mean_alternatives reg);
      ("route.passes", "count", passes);
      ("route.phase2_s", "s", split.Layers.phase2_s);
      ( "route.assign_attempts",
        "count",
        float_of_int (Layers.counter reg "route.assign_attempts") );
      ( "route.overflow_initial",
        "tracks",
        route_int (fun r -> r.Router.initial_overflow) );
      ( "route.overflow_final",
        "tracks",
        route_int (fun r -> r.Router.overflow) );
      ("channel.define_s", "s", split.Layers.channel_s);
      ( "channel.regions",
        "count",
        route_int (fun r -> Graph.n_nodes r.Router.graph) );
      ( "channel.graph_edges",
        "count",
        route_int (fun r -> Graph.n_edges r.Router.graph) );
      ("core.stage2_s", "s", stage2_s);
      ("core.refine_anneal_s", "s", split.Layers.refine_anneal_s);
      ("util.pool_busy_s", "s", Layers.series_sum reg "pool.busy_s");
      ( "util.pool_utilization",
        "ratio",
        Layers.series_mean reg "pool.utilization" );
      ( "util.pool_imbalance",
        "ratio",
        Metrics.gauge_value (Metrics.gauge reg "pool.imbalance") );
      ( "gc.minor_collections",
        "count",
        float_of_int gc.Layers.minor_collections );
      ( "gc.major_collections",
        "count",
        float_of_int gc.Layers.major_collections );
      ("gc.minor_words", "words", gc.Layers.minor_words);
      ("gc.promoted_words", "words", gc.Layers.promoted_words);
      ("netlist.parse_s", "s", st.med_parse_s);
      ("robust.lint_s", "s", st.med_lint_s);
      ("util.pool_spawn_s", "s", st.med_spawn_s);
      ("qa.check_s", "s", check_s);
      ("obs.overhead_frac", "ratio", (solve_s /. base.solve_s) -. 1.0);
      ("trace.solve_s", "s", solve_s);
      ("trace.unexplained_s", "s", solve_s -. explained) ]
    @ probes
  in
  (problems, metrics)

(* The traced solve is the run's first solve, as in [end_to_end]. *)
let layers w ~seed ~seconds =
  let seed0 = solve_seed ~seed 0 in
  let nl, bases, st =
    with_setups w ~calls:1 (fun _ nl -> solve_and_check w ~seed:seed0 nl)
  in
  let base = List.hd bases in
  report_problems w base;
  let problems, metrics = traced w ~seed:seed0 ~nl ~st ~base in
  List.iter
    (fun p -> Printf.eprintf "%s: traced check failed: %s\n%!" w.name p)
    problems;
  print_meta w ~seed ~seconds ~trace:1 ~netlist:nl ~solves:2;
  let failed =
    (if base.problems <> [] then 1 else 0) + if problems <> [] then 1 else 0
  in
  print_result ~attempted:2 ~failed metrics

(* -------------------------------------------------------- self-test *)

(* At jobs=1 these counts depend only on the input and the seed: two traced
   runs in separate processes must report them identically.  A mismatch is
   a defect in the benchmark (or a loss of determinism in the program),
   never noise.  Separate processes, because a second solve in the same
   process starts from a different major heap and can complete a different
   number of major cycles. *)
let exact_counts =
  [ "place.generate_calls"; "place.trials"; "route.assign_attempts";
    "channel.regions"; "gc.minor_words" ]

(* The value of metric [name] in a result line printed by [print_result]. *)
let metric_value line name =
  let key = json_str name ^ ": {\"value\": " in
  let rec find i =
    if i + String.length key > String.length line then None
    else if String.sub line i (String.length key) = key then
      let j = i + String.length key in
      let k = ref j in
      while !k < String.length line && line.[!k] <> ',' do incr k done;
      float_of_string_opt (String.sub line j (!k - j))
    else find (i + 1)
  in
  find 0

let traced_child w ~seed =
  let ic =
    Unix.open_process_args_in Sys.executable_name
      [| Sys.executable_name; "--workload"; w.name; "--seed";
         string_of_int seed; "--seconds"; "1"; "--trace"; "1" |]
  in
  let lines = In_channel.input_all ic |> String.split_on_char '\n' in
  let status = Unix.close_process_in ic in
  match (status, List.filter (fun l -> l <> "") lines |> List.rev) with
  | Unix.WEXITED 0, last :: _ -> Some last
  | _ -> None

let selftest ~seed =
  let ok = ref true in
  List.iter
    (fun w ->
      if w.jobs = 1 then
        match (traced_child w ~seed, traced_child w ~seed) with
        | Some a, Some b ->
            List.iter
              (fun name ->
                let x = metric_value a name and y = metric_value b name in
                let same = x <> None && x = y in
                if not same then ok := false;
                let show = function
                  | Some v -> Printf.sprintf "%.0f" v
                  | None -> "missing"
                in
                Printf.printf "%-14s %-22s %16s %16s %s\n%!" w.name name
                  (show x) (show y)
                  (if same then "ok" else "MISMATCH"))
              exact_counts
        | _ ->
            ok := false;
            Printf.printf "%s: traced run failed\n%!" w.name)
    workloads;
  if !ok then print_endline "selftest: ok"
  else begin
    print_endline "selftest: FAILED";
    exit 1
  end

(* ------------------------------------------------------------- main *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 30 in
  let trace = ref 0 and self = ref false in
  Arg.parse
    [ ( "--workload",
        Arg.Set_string workload,
        "NAME flow-p1 | place-i1 | multistart-j2" );
      ("--seed", Arg.Set_int seed, "N input and annealing seed");
      ("--seconds", Arg.Set_int seconds, "S measurement length");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) run");
      ("--selftest", Arg.Set self, " check the jobs=1 exact counts") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "flowbench --workload NAME --seed N --seconds S --trace 0|1";
  if !self then selftest ~seed:!seed
  else
    match List.find_opt (fun w -> w.name = !workload) workloads with
    | None ->
        prerr_endline ("flowbench: unknown workload " ^ !workload);
        exit 2
    | Some w ->
        if !trace = 0 then end_to_end w ~seed:!seed ~seconds:!seconds
        else layers w ~seed:!seed ~seconds:!seconds
