(* Integration tests: the complete two-stage TimberWolfMC flow. *)

module Rect = Twmc_geometry.Rect
module Netlist = Twmc_netlist.Netlist

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let netlist () =
  Twmc_workload.Synth.generate ~seed:41
    { Twmc_workload.Synth.default_spec with
      Twmc_workload.Synth.n_cells = 9;
      n_nets = 26;
      n_pins = 96;
      frac_custom = 0.3 }

let params = { Twmc_place.Params.default with Twmc_place.Params.a_c = 60; m_routes = 6 }

let flow ~params ~seed nl =
  match (Twmc.Flow.run_resilient ~params ~seed nl).Twmc.Flow.flow with
  | Some r -> r
  | None -> Alcotest.fail "flow produced no result"

let full_flow = lazy (flow ~params ~seed:2 (netlist ()))

let test_full_flow () =
  let nl = netlist () in
  let r = Lazy.force full_flow in
  (* The digest the unguarded [Flow.run] gave on this netlist and seed
     before the guarded driver became the only flow path: every caller
     that moved over gets the same placement and routing. *)
  Alcotest.(check string)
    "same result as the unguarded flow" "2d5bed4f2744a60aefeda35b447f972e"
    (Twmc_qa.Fingerprint.flow r);
  checkb "teil positive" true (r.Twmc.Flow.teil_final > 0.0);
  checkb "area positive" true (r.Twmc.Flow.area_final > 0);
  check "three refinements" 3
    (List.length r.Twmc.Flow.stage2.Twmc.Stage2.iterations);
  (* Every refinement saw a usable channel graph and routed nearly all
     nets. *)
  List.iter
    (fun (it : Twmc.Stage2.iteration) ->
      checkb "regions found" true (it.Twmc.Stage2.regions > 5);
      checkb "mostly routed" true
        (it.Twmc.Stage2.routed_nets
        >= (it.Twmc.Stage2.routed_nets + it.Twmc.Stage2.unroutable_nets) * 8 / 10))
    r.Twmc.Flow.stage2.Twmc.Stage2.iterations;
  (* The final placement is essentially overlap-free relative to cell
     area. *)
  let p = r.Twmc.Flow.stage2.Twmc.Stage2.placement in
  let total = float_of_int (Netlist.total_cell_area nl) in
  checkb "final overlap small" true
    (Twmc_place.Placement.c2_raw p /. total < 0.10);
  Twmc_place.Placement.verify_consistency p;
  (* Final routing exists. *)
  (match r.Twmc.Flow.stage2.Twmc.Stage2.final_route with
  | Some route ->
      checkb "final route nets" true
        (List.length route.Twmc_route.Global_router.routed > 0)
  | None -> Alcotest.fail "final route missing");
  (* The chip bbox contains every expanded tile. *)
  for ci = 0 to Netlist.n_cells nl - 1 do
    List.iter
      (fun t -> checkb "tile inside chip" true (Rect.contains_rect r.Twmc.Flow.chip t))
      (Twmc_place.Placement.expanded_tiles p ci)
  done

(* Which rule ended each refinement anneal's cooling (recorded at the
   per-stage loops the shared driver replaced): the first two at the
   minimum window span; the final one, whose rule is 3 frozen
   temperatures, at the temperature floor — its cost never holds still for
   3 temperatures on this netlist. *)
let test_refinement_stop_rules () =
  let r = Lazy.force full_flow in
  let name = function
    | Twmc_place.Anneal_loop.Min_span -> "min span"
    | Frozen -> "frozen"
    | T_floor -> "t floor"
    | Interrupted -> "interrupted"
  in
  Alcotest.(check (list string))
    "stop rules"
    [ "min span"; "min span"; "t floor" ]
    (List.map
       (fun (it : Twmc.Stage2.iteration) -> name it.Twmc.Stage2.anneal_stop)
       r.Twmc.Flow.stage2.Twmc.Stage2.iterations)

let test_flow_determinism () =
  let nl = netlist () in
  let small = { params with Twmc_place.Params.a_c = 15 } in
  let r1 = flow ~params:small ~seed:3 nl in
  let r2 = flow ~params:small ~seed:3 nl in
  Alcotest.(check (float 1e-9)) "same final TEIL" r1.Twmc.Flow.teil_final
    r2.Twmc.Flow.teil_final;
  check "same final area" r1.Twmc.Flow.area_final r2.Twmc.Flow.area_final

let test_required_expansions () =
  let nl = netlist () in
  let r = flow ~params ~seed:4 nl in
  match r.Twmc.Flow.stage2.Twmc.Stage2.final_route with
  | None -> Alcotest.fail "route missing"
  | Some route ->
      let p = r.Twmc.Flow.stage2.Twmc.Stage2.placement in
      let exps = Twmc.Stage2.required_expansions p route in
      let ts = nl.Twmc_netlist.Netlist.track_spacing in
      Array.iter
        (fun (l, r_, b, t) ->
          List.iter
            (fun e -> checkb "one-track floor" true (e >= ts))
            [ l; r_; b; t ])
        exps

let test_stage2_converges () =
  (* Table 3's qualitative claim: the stage-2/stage-1 TEIL and area ratios
     are close to 1 (the dynamic estimator already allocated roughly the
     right space).  Allow a generous band — quick-profile runs are noisy. *)
  let nl = netlist () in
  let r = flow ~params ~seed:5 nl in
  let teil_ratio = r.Twmc.Flow.teil_final /. r.Twmc.Flow.teil_stage1 in
  let area_ratio =
    float_of_int r.Twmc.Flow.area_final /. float_of_int r.Twmc.Flow.area_stage1
  in
  checkb "teil ratio near 1" true (teil_ratio > 0.7 && teil_ratio < 1.4);
  checkb "area ratio near 1" true (area_ratio > 0.7 && area_ratio < 1.5)

let test_retry_exhaustion_surfaces_cause () =
  (* A deliberately infeasible core spec: stage 1 cannot even construct
     its estimator on a zero-area core, so every retry fails.  The result
     must carry a G405 error naming the last attempt's failing diagnostic
     (the root cause), report the retries actually used, and classify as
     Degraded — never raise, never return a bare "no result". *)
  let nl = netlist () in
  let core = Twmc_geometry.Rect.make ~x0:0 ~y0:0 ~x1:0 ~y1:0 in
  let rr = Twmc.Flow.run_resilient ~params ~seed:1 ~core ~max_retries:1 nl in
  checkb "no flow result" true (rr.Twmc.Flow.flow = None);
  Alcotest.(check string)
    "degraded, not crashed" "degraded"
    (Twmc.Flow.status_to_string rr.Twmc.Flow.status);
  Alcotest.(check int) "used the one retry" 1 rr.Twmc.Flow.retries_used;
  let find code =
    List.filter
      (fun d -> d.Twmc.Robust.Diagnostic.code = code)
      rr.Twmc.Flow.diagnostics
  in
  checkb "per-attempt G400s" true (List.length (find "G400") >= 2);
  match find "G405" with
  | [ d ] ->
      checkb "summary is an error" true
        (d.Twmc.Robust.Diagnostic.severity = Twmc.Robust.Diagnostic.Error);
      let msg = d.Twmc.Robust.Diagnostic.message in
      let mentions needle =
        let n = String.length needle and m = String.length msg in
        let rec go i = i + n <= m && (String.sub msg i n = needle || go (i + 1)) in
        go 0
      in
      checkb "names the attempt count" true (mentions "2 attempt");
      checkb "names the failing code" true (mentions "[G400]")
  | ds -> Alcotest.failf "expected exactly one G405, got %d" (List.length ds)

let () =
  Alcotest.run "flow"
    [ ( "flow",
        [ Alcotest.test_case "full flow" `Slow test_full_flow;
          Alcotest.test_case "refinement stop rules" `Slow
            test_refinement_stop_rules;
          Alcotest.test_case "determinism" `Slow test_flow_determinism;
          Alcotest.test_case "required expansions" `Slow test_required_expansions;
          Alcotest.test_case "stage2 convergence" `Slow test_stage2_converges;
          Alcotest.test_case "retry exhaustion names the cause" `Quick
            test_retry_exhaustion_surfaces_cause ] ) ]
