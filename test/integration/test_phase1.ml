(* Router phase 1 (Sec 4.2.1) on a fixed p1 stage-1 placement: the
   enumerated alternatives and the routed result are pinned by digest, so
   any change to path order or tie-breaking in the M-shortest kernel shows
   up here, and the enumeration's allocation is held to a hard budget.
   Allocation at jobs=1 is seed-deterministic; no assertion here depends on
   elapsed time. *)

module Pool = Twmc_util.Domain_pool
module Graph = Twmc_channel.Graph
module Pin_map = Twmc_channel.Pin_map
module Steiner = Twmc_route.Steiner
module Router = Twmc_route.Global_router

let test_jobs =
  match Sys.getenv_opt "TWMC_TEST_JOBS" with
  | Some s -> (try max 2 (int_of_string s) with _ -> 4)
  | None -> 4

(* p1 (11 cells, 83 nets) annealed at a_c=4 from a fixed seed, then its
   channel graph and routing tasks, as stage 2 builds them. *)
let scene =
  lazy
    (let nl = Twmc_workload.Circuits.netlist "p1" in
     let params = { Twmc_place.Params.default with Twmc_place.Params.a_c = 4 } in
     let s1 =
       Twmc_place.Stage1.run ~params ~rng:(Twmc_sa.Rng.create ~seed:1) nl
     in
     let p = s1.Twmc_place.Stage1.placement in
     let g =
       Graph.build ~track_spacing:nl.Twmc_netlist.Netlist.track_spacing
         (Twmc_channel.Extract.of_placement p)
     in
     (g, Pin_map.tasks g p))

let terminals (t : Pin_map.net_task) =
  List.map (fun c -> c.Pin_map.candidates) t.Pin_map.terminals

let enumerate (g, tasks) =
  List.map
    (fun t -> Steiner.routes ~budget_factor:4 g ~m:20 ~terminals:(terminals t))
    tasks

let ints l = String.concat "," (List.map string_of_int l)

let render_routes per_net =
  let b = Buffer.create 4096 in
  List.iteri
    (fun i routes ->
      Printf.bprintf b "net %d\n" i;
      List.iter
        (fun (r : Steiner.route) ->
          Printf.bprintf b "%d [%s] [%s]\n" r.Steiner.length (ints r.Steiner.edges)
            (ints r.Steiner.nodes))
        routes)
    per_net;
  Buffer.contents b

let render_result (r : Router.result) =
  let b = Buffer.create 4096 in
  List.iter
    (fun (rn : Router.routed_net) ->
      Printf.bprintf b "%d %d %d [%s]\n" rn.Router.net rn.Router.alternatives
        rn.Router.route.Steiner.length
        (ints rn.Router.route.Steiner.edges))
    r.Router.routed;
  Printf.bprintf b "L=%d X=%d X0=%d attempts=%d unroutable=[%s] density=[%s]\n"
    r.Router.total_length r.Router.overflow r.Router.initial_overflow
    r.Router.assign_attempts (ints r.Router.unroutable)
    (ints (Array.to_list r.Router.edge_density));
  Buffer.contents b

let md5 s = Digest.to_hex (Digest.string s)

let test_scene_shape () =
  let g, tasks = Lazy.force scene in
  Alcotest.(check (pair int int))
    "regions, edges" (65, 211)
    (Graph.n_nodes g, Graph.n_edges g);
  Alcotest.(check int) "nets" 83 (List.length tasks)

(* Both digests were computed with the Set/Hashtbl Dijkstra and Yen that
   the array kernel replaced: the kernel must reproduce them exactly. *)
let phase1_digest = "70e7bf990b90285dabdfa1be88f44344"
let router_digest = "e9d7e25fe350fef1c45ef4d814f4cc65"

let test_phase1_digest () =
  Alcotest.(check string)
    "phase-1 alternatives" phase1_digest
    (md5 (render_routes (enumerate (Lazy.force scene))))

let route ?pool (g, tasks) =
  Router.route ~m:20 ~budget_factor:4 ?pool ~rng:(Twmc_sa.Rng.create ~seed:5)
    ~graph:g ~tasks ()

let test_router_digest () =
  let s = Lazy.force scene in
  Alcotest.(check string)
    "jobs=1" router_digest
    (md5 (render_result (route s)));
  Pool.with_pool ~jobs:test_jobs (fun pool ->
      Alcotest.(check string)
        (Printf.sprintf "jobs=%d" test_jobs)
        router_digest
        (md5 (render_result (route ~pool s))))

(* Minor-heap words over one jobs=1 enumeration of every net, measured in
   the default (dev) build: 4,573,180.  The budget is that count plus 25%;
   allocation at jobs=1 is deterministic, so this hard-fails. *)
let measured_words = 4_573_180.0

let test_phase1_alloc () =
  let s = Lazy.force scene in
  ignore (Sys.opaque_identity (enumerate s));
  let w0 = Gc.minor_words () in
  ignore (Sys.opaque_identity (enumerate s));
  let words = Gc.minor_words () -. w0 in
  Printf.printf "phase-1 minor words: %.0f\n" words;
  if words > 1.25 *. measured_words then
    Alcotest.failf "phase 1 allocated %.0f minor words, budget %.0f" words
      (1.25 *. measured_words)

let () =
  Alcotest.run "phase1"
    [ ( "p1",
        [ Alcotest.test_case "scene" `Quick test_scene_shape;
          Alcotest.test_case "phase-1 digest" `Quick test_phase1_digest;
          Alcotest.test_case "router digest" `Quick test_router_digest;
          Alcotest.test_case "phase-1 allocation" `Quick test_phase1_alloc ] ) ]
