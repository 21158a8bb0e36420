open Twmc_workload
module Stats = Twmc_netlist.Stats

type row = {
  circuit : string;
  n_cells : int;
  n_nets : int;
  n_pins : int;
  trials : int;
  teil_reduction_pct : float;
  area_reduction_pct : float;
  paper_teil_reduction_pct : float;
  paper_area_reduction_pct : float;
}

let run ?out_csv (profile : Profile.t) ppf =
  let params = Profile.params profile in
  let rows =
    List.map
      (fun name ->
        let trials = min (Circuits.trials name) profile.Profile.max_trials in
        let teil_red = ref 0.0 and area_red = ref 0.0 in
        let nl0 = ref None in
        for trial = 1 to trials do
          let nl = Circuits.netlist ~seed:trial name in
          if !nl0 = None then nl0 := Some nl;
          let r = Profile.flow ~params ~seed:(100 + trial) nl in
          teil_red :=
            !teil_red
            +. (100.0
               *. (r.Twmc.Flow.teil_stage1 -. r.Twmc.Flow.teil_final)
               /. Float.max 1.0 r.Twmc.Flow.teil_stage1);
          area_red :=
            !area_red
            +. (100.0
               *. float_of_int (r.Twmc.Flow.area_stage1 - r.Twmc.Flow.area_final)
               /. Float.max 1.0 (float_of_int r.Twmc.Flow.area_stage1))
        done;
        let nl = Option.get !nl0 in
        let s = Stats.of_netlist nl in
        let p_teil, p_area =
          let _, t, a =
            List.find (fun (n, _, _) -> n = name) Circuits.paper_table3
          in
          (t, a)
        in
        { circuit = name;
          n_cells = s.Stats.n_cells;
          n_nets = s.Stats.n_nets;
          n_pins = s.Stats.n_pins;
          trials;
          teil_reduction_pct = !teil_red /. float_of_int trials;
          area_reduction_pct = !area_red /. float_of_int trials;
          paper_teil_reduction_pct = p_teil;
          paper_area_reduction_pct = p_area })
      profile.Profile.circuits
  in
  let avg f = List.fold_left (fun a r -> a +. f r) 0.0 rows /. float_of_int (List.length rows) in
  let header =
    [ "circuit"; "cells"; "nets"; "pins"; "trials"; "teil_red%"; "area_red%";
      "paper_teil%"; "paper_area%" ]
  in
  let cells =
    List.map
      (fun r ->
        [ r.circuit;
          string_of_int r.n_cells;
          string_of_int r.n_nets;
          string_of_int r.n_pins;
          string_of_int r.trials;
          Report.pct r.teil_reduction_pct;
          Report.pct r.area_reduction_pct;
          Report.pct r.paper_teil_reduction_pct;
          Report.pct r.paper_area_reduction_pct ])
      rows
    @ [ [ "avg"; ""; ""; ""; "";
          Report.pct (avg (fun r -> r.teil_reduction_pct));
          Report.pct (avg (fun r -> r.area_reduction_pct));
          "4.4"; "4.1" ] ]
  in
  Format.fprintf ppf "Table 3 — estimator accuracy (stage2 vs stage1), profile %s@."
    profile.Profile.name;
  Report.table ~header ~rows:cells ppf;
  (match out_csv with
  | Some path -> Report.write_csv ~path ~header ~rows:cells
  | None -> ());
  rows
