open Twmc_workload
open Twmc_baselines
module Stats = Twmc_netlist.Stats
module Rect = Twmc_geometry.Rect

type row = {
  circuit : string;
  n_cells : int;
  n_nets : int;
  n_pins : int;
  twmc_teil : float;
  twmc_area : int;
  chip_w : int;
  chip_h : int;
  best_baseline_teil : float;
  best_baseline_teil_name : string;
  best_baseline_area : int;
  best_baseline_area_name : string;
  teil_reduction_pct : float;
  area_reduction_pct : float;
  paper_teil_reduction_pct : float;
  paper_area_reduction_pct : float option;
}

let baselines nl expansion =
  List.map
    (Baseline.evaluate ~expansion nl)
    [ Shelf.place ~expansion nl;
      Spectral.place ~expansion nl;
      Slicing.place ~expansion nl ]

let run ?out_csv (profile : Profile.t) ppf =
  let params = Profile.params profile in
  let rows =
    List.map
      (fun name ->
        let nl = Circuits.netlist ~seed:1 name in
        let s = Stats.of_netlist nl in
        (* Best flow result over the profile's seeds. *)
        let best =
          List.fold_left
            (fun acc seed ->
              let r = Profile.flow ~params ~seed nl in
              match acc with
              | Some (b : Twmc.Flow.result)
                when b.Twmc.Flow.teil_final <= r.Twmc.Flow.teil_final ->
                  acc
              | _ -> Some r)
            None profile.Profile.seeds
          |> Option.get
        in
        let expansion = Baseline.uniform_expansion nl in
        let evals = baselines nl expansion in
        let best_teil =
          List.fold_left
            (fun (acc : Baseline.evaluated) e ->
              if e.Baseline.teil < acc.Baseline.teil then e else acc)
            (List.hd evals) (List.tl evals)
        in
        let best_area =
          List.fold_left
            (fun (acc : Baseline.evaluated) e ->
              if e.Baseline.area < acc.Baseline.area then e else acc)
            (List.hd evals) (List.tl evals)
        in
        let p_teil, p_area =
          let _, t, a =
            List.find (fun (n, _, _) -> n = name) Circuits.paper_table4
          in
          (t, a)
        in
        { circuit = name;
          n_cells = s.Stats.n_cells;
          n_nets = s.Stats.n_nets;
          n_pins = s.Stats.n_pins;
          twmc_teil = best.Twmc.Flow.teil_final;
          twmc_area = best.Twmc.Flow.area_final;
          chip_w = Rect.width best.Twmc.Flow.chip;
          chip_h = Rect.height best.Twmc.Flow.chip;
          best_baseline_teil = best_teil.Baseline.teil;
          best_baseline_teil_name = best_teil.Baseline.name;
          best_baseline_area = best_area.Baseline.area;
          best_baseline_area_name = best_area.Baseline.name;
          teil_reduction_pct =
            100.0
            *. (best_teil.Baseline.teil -. best.Twmc.Flow.teil_final)
            /. Float.max 1.0 best_teil.Baseline.teil;
          area_reduction_pct =
            100.0
            *. float_of_int (best_area.Baseline.area - best.Twmc.Flow.area_final)
            /. Float.max 1.0 (float_of_int best_area.Baseline.area);
          paper_teil_reduction_pct = p_teil;
          paper_area_reduction_pct = p_area })
      profile.Profile.circuits
  in
  let avg f = List.fold_left (fun a r -> a +. f r) 0.0 rows /. float_of_int (List.length rows) in
  let header =
    [ "circuit"; "cells"; "nets"; "pins"; "TEIL"; "area(x*y)"; "teil_red%";
      "area_red%"; "paper_teil%"; "paper_area%"; "vs_teil"; "vs_area" ]
  in
  let cells =
    List.map
      (fun r ->
        [ r.circuit;
          string_of_int r.n_cells;
          string_of_int r.n_nets;
          string_of_int r.n_pins;
          Report.f0 r.twmc_teil;
          Printf.sprintf "%dx%d" r.chip_w r.chip_h;
          Report.pct r.teil_reduction_pct;
          Report.pct r.area_reduction_pct;
          Report.pct r.paper_teil_reduction_pct;
          (match r.paper_area_reduction_pct with
          | Some a -> Report.pct a
          | None -> "n/a");
          r.best_baseline_teil_name;
          r.best_baseline_area_name ])
      rows
    @ [ [ "avg"; ""; ""; ""; ""; "";
          Report.pct (avg (fun r -> r.teil_reduction_pct));
          Report.pct (avg (fun r -> r.area_reduction_pct));
          "24.9"; "26.9"; ""; "" ] ]
  in
  Format.fprintf ppf
    "Table 4 — TimberWolfMC vs best baseline placement, profile %s@."
    profile.Profile.name;
  Report.table ~header ~rows:cells ppf;
  (match out_csv with
  | Some path -> Report.write_csv ~path ~header ~rows:cells
  | None -> ());
  rows
