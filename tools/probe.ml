let () =
  let nl = Twmc_workload.Circuits.netlist ~seed:1 "l1" in
  let params = { Twmc_place.Params.default with Twmc_place.Params.a_c = 25; m_routes = 6; route_effort = 4 } in
  let t0 = Unix.gettimeofday () in
  let r = Option.get (Twmc.Flow.run_resilient ~params ~seed:1 nl).Twmc.Flow.flow in
  Printf.printf "l1 quick: TEIL %.0f->%.0f area %d->%d wall=%.1fs\n"
    r.Twmc.Flow.teil_stage1 r.teil_final r.area_stage1 r.area_final (Unix.gettimeofday () -. t0)
