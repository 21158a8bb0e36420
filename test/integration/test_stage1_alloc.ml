(* The stage-1 anneal's trial path (Sec 3.2.1's generate function) on the
   paper's i1: the annealed placement is pinned by digest, so the move
   tables, pending-cell pool and flat pin arrays must reproduce the
   list-based generator's RNG stream and float chains exactly, and
   [Moves.generate] is held to a hard minor-heap budget.  Allocation at
   jobs=1 is seed-deterministic; no assertion here depends on elapsed
   time. *)

open Twmc_place

(* i1 (33 cells, 121 nets) annealed at a_c=20 from seed 1: the benchmark's
   place-i1 solve. *)
let annealed =
  lazy
    (let nl = Twmc_workload.Circuits.netlist "i1" in
     let params = { Params.default with Params.a_c = 20 } in
     Stage1.run ~params ~rng:(Twmc_sa.Rng.create ~seed:1) nl)

(* Computed at the list-based generator (sites re-derived per pin trial,
   tuple pin positions, closure-based [delta_cost]); the allocation-free
   path must reproduce it. *)
let stage1_digest = "2b120db0dec5791de7f2265ee49462f6"

let test_stage1_digest () =
  let s1 = Lazy.force annealed in
  Alcotest.(check string)
    "stage-1 placement" stage1_digest
    (Twmc_qa.Fingerprint.placement s1.Stage1.placement)

(* [calls] generate calls at the anneal's middle temperature, from a copy
   of the annealed placement, with a fresh limiter and RNG: a fixed
   mid-anneal state independent of everything else in this file. *)
let calls = 2_000

let generate_words () =
  let s1 = Lazy.force annealed in
  let src = s1.Stage1.placement in
  let nl = Placement.netlist src in
  let params = Placement.params src in
  let p =
    Placement.create ~params ~core:s1.Stage1.core
      ~expander:(Placement.expander src) ~rng:(Twmc_sa.Rng.create ~seed:0) nl
  in
  Placement.set_p2 p (Placement.p2 src);
  for ci = 0 to Twmc_netlist.Netlist.n_cells nl - 1 do
    let x, y = Placement.cell_pos src ci in
    Placement.set_cell p ci ~x ~y ~orient:(Placement.cell_orient src ci)
      ~variant:(Placement.cell_variant src ci)
      ~sites:
        (Array.init
           (Twmc_netlist.Cell.n_pins nl.Twmc_netlist.Netlist.cells.(ci))
           (fun pin -> Placement.site_of_pin src ~cell:ci ~pin))
      ()
  done;
  let temp =
    let tr = s1.Stage1.trace in
    (List.nth tr (List.length tr / 2)).Stage1.temperature
  in
  let limiter =
    Range_limiter.of_core ~rho:params.Params.rho ~t_inf:s1.Stage1.t_inf
      ~core:s1.Stage1.core ~min_window:params.Params.min_window
  in
  let ctx =
    Moves.make_ctx ~placement:p ~limiter ~stats:(Moves.make_stats ()) ()
  in
  let rng = Twmc_sa.Rng.create ~seed:7 in
  let w0 = Gc.minor_words () in
  for _ = 1 to calls do
    Moves.generate ctx rng ~temp
  done;
  let words = Gc.minor_words () -. w0 in
  Placement.verify_consistency p;
  words

(* Minor-heap words over the [calls] generate calls above, measured in the
   default (dev) build: 28,944,329 with the list-based generator,
   1,633,257 with the site tables, pending pool and flat pin arrays.  The
   budget is 40% of the former; allocation at jobs=1 is deterministic, so
   this hard-fails. *)
let parent_words = 28_944_329.0

let test_generate_alloc () =
  let words = generate_words () in
  Printf.printf "stage-1 generate minor words: %.0f (%.0f per call)\n" words
    (words /. float_of_int calls);
  if words > 0.40 *. parent_words then
    Alcotest.failf "%d generate calls allocated %.0f minor words, budget %.0f"
      calls words (0.40 *. parent_words)

let () =
  Alcotest.run "stage1_alloc"
    [ ( "i1",
        [ Alcotest.test_case "stage-1 digest" `Quick test_stage1_digest;
          Alcotest.test_case "generate allocation" `Quick test_generate_alloc
        ] ) ]
