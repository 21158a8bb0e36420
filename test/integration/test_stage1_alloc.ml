(* The anneal's trial path (Sec 3.2.1's generate function) on the paper's
   i1: the stage-1 placement is pinned by digest, so the move tables,
   pending-cell pool and flat pin arrays must reproduce the list-based
   generator's RNG stream and float chains exactly, and [Moves.generate]
   is held to a hard minor-heap budget with stage 1's and with stage 2's
   move set.  Allocation at jobs=1 is seed-deterministic; no assertion
   here depends on elapsed time. *)

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

let calls = 2_000

(* A copy of the annealed placement under [expander], with fresh caches:
   a fixed state independent of everything else in this file. *)
let annealed_copy ~expander =
  let s1 = Lazy.force annealed in
  let src = s1.Stage1.placement in
  let nl = Placement.netlist src in
  let p =
    Placement.create ~params:(Placement.params src) ~core:s1.Stage1.core
      ~expander ~rng:(Twmc_sa.Rng.create ~seed:0) nl
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
  p

(* Minor-heap words of [calls] generate calls at [temp] with a fresh RNG. *)
let words_of_calls ?refine p ~limiter ~temp =
  let ctx =
    Moves.make_ctx ?refine ~placement:p ~limiter ~stats:(Moves.make_stats ())
      ()
  in
  let rng = Twmc_sa.Rng.create ~seed:7 in
  let w0 = Gc.minor_words () in
  for _ = 1 to calls do
    Moves.generate ctx rng ~temp
  done;
  let words = Gc.minor_words () -. w0 in
  Placement.verify_consistency p;
  words

(* Stage-1 moves at the anneal's middle temperature, dynamic estimator. *)
let generate_words () =
  let s1 = Lazy.force annealed in
  let p =
    annealed_copy ~expander:(Placement.expander s1.Stage1.placement)
  in
  let params = Placement.params p in
  let temp =
    let tr = s1.Stage1.trace in
    (List.nth tr (List.length tr / 2)).Stage1.temperature
  in
  let limiter =
    Range_limiter.of_core ~rho:params.Params.rho ~t_inf:s1.Stage1.t_inf
      ~core:s1.Stage1.core ~min_window:params.Params.min_window
  in
  words_of_calls p ~limiter ~temp

(* Stage-2 moves (displacements and pin moves only) on a static one-track
   expansion, at the refinement's start temperature: the Table 2 profile
   scaled by the expanded cell area, window at the fraction mu. *)
let refine_words () =
  let nl = (Lazy.force annealed).Stage1.placement |> Placement.netlist in
  let ts = nl.Twmc_netlist.Netlist.track_spacing in
  let p =
    annealed_copy
      ~expander:
        (Placement.Static
           (Array.make (Twmc_netlist.Netlist.n_cells nl) (ts, ts, ts, ts)))
  in
  let params = Placement.params p in
  let s_t =
    Twmc_sa.Schedule.s_t
      ~avg_cell_area:(Anneal_loop.avg_effective_cell_area p)
  in
  let limiter =
    Range_limiter.of_core ~rho:params.Params.rho
      ~t_inf:(Twmc_sa.Schedule.t_infinity ~s_t)
      ~core:(Placement.core p) ~min_window:params.Params.min_window
  in
  let temp = Range_limiter.t_for_window_fraction limiter ~mu:params.Params.mu in
  words_of_calls ~refine:true p ~limiter ~temp

(* Minor-heap words over the [calls] generate calls above, measured in the
   default (dev) build once an accepted trial commits its simulated state
   instead of rebuilding it: 1,078,499.  The budget is that count plus
   25%; allocation at jobs=1 is deterministic, so this hard-fails. *)
let measured_words = 1_078_499.0

let test_generate_alloc () =
  let words = generate_words () in
  Printf.printf "stage-1 generate minor words: %.0f (%.0f per call)\n" words
    (words /. float_of_int calls);
  if words > 1.25 *. measured_words then
    Alcotest.failf "%d generate calls allocated %.0f minor words, budget %.0f"
      calls words (1.25 *. measured_words)

(* Minor-heap words over the stage-2 calls above, measured in the default
   (dev) build once an accepted trial commits its simulated state:
   244,937.  The budget is that count plus 25%; allocation at jobs=1 is
   deterministic, so this hard-fails too. *)
let refine_measured_words = 244_937.0

let test_refine_alloc () =
  let words = refine_words () in
  Printf.printf "stage-2 generate minor words: %.0f (%.0f per call)\n" words
    (words /. float_of_int calls);
  if words > 1.25 *. refine_measured_words then
    Alcotest.failf
      "%d stage-2 generate calls allocated %.0f minor words, budget %.0f"
      calls words (1.25 *. refine_measured_words)

let () =
  Alcotest.run "stage1_alloc"
    [ ( "i1",
        [ Alcotest.test_case "stage-1 digest" `Quick test_stage1_digest;
          Alcotest.test_case "generate allocation" `Quick test_generate_alloc;
          Alcotest.test_case "stage-2 generate allocation" `Quick
            test_refine_alloc ] ) ]
