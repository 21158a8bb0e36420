(* Chip planning: a mix of fixed macros and soft custom cells with instance
   selection, aspect-ratio ranges, pin groups and sequences — the scenario
   the paper's introduction singles TimberWolfMC out for ("applicable to
   chip planning problems").

       dune exec examples/chip_planning.exe *)

open Twmc_netlist
module Shape = Twmc_geometry.Shape

let netlist () =
  let b = Builder.create ~name:"chip_planning" ~track_spacing:2 in
  (* Two hard macros with fixed pinouts. *)
  Builder.add_macro b ~name:"pll"
    ~shape:(Shape.rectangle ~w:60 ~h:60)
    ~pins:
      [ Builder.at ~name:"clkout" ~net:"clk" (60, 30);
        Builder.at ~name:"ref" ~net:"refclk" (0, 30) ];
  Builder.add_macro b ~name:"io"
    ~shape:(Shape.t_shape ~w:160 ~h:90 ~stem_w:60 ~stem_h:40)
    ~pins:
      [ Builder.at ~name:"b0" ~net:"bus0" (0, 20);
        Builder.at ~name:"b1" ~net:"bus1" (0, 30);
        Builder.at ~name:"b2" ~net:"bus2" (160, 20);
        Builder.at ~name:"b3" ~net:"bus3" (160, 30);
        Builder.at ~name:"ck" ~net:"clk" (80, 0);
        Builder.at ~name:"r" ~net:"refclk" (80, 40) ];
  (* A soft datapath: wide aspect range, a sequenced bus pin group that the
     annealer must keep in order along one edge pair. *)
  Builder.add_custom b ~name:"dp" ~area:12000 ~aspect_lo:0.4 ~aspect_hi:2.5
    ~n_variants:7
    ~pins:
      [ Builder.on ~group:1 ~seq:0 ~name:"d0" ~net:"bus0"
          (Pin.Sides [ Side.Left; Side.Right ]);
        Builder.on ~group:1 ~seq:1 ~name:"d1" ~net:"bus1"
          (Pin.Sides [ Side.Left; Side.Right ]);
        Builder.on ~group:1 ~seq:2 ~name:"d2" ~net:"bus2"
          (Pin.Sides [ Side.Left; Side.Right ]);
        Builder.on ~group:1 ~seq:3 ~name:"d3" ~net:"bus3"
          (Pin.Sides [ Side.Left; Side.Right ]);
        Builder.on ~name:"ck" ~net:"clk" Pin.Any_edge;
        Builder.on ~name:"o" ~net:"dout" Pin.Any_edge ]
    ();
  (* A block available in two explicit instances (tall or square): the
     annealer selects the better-fitting one. *)
  Builder.add_custom_instances b ~name:"cache"
    ~shapes:[ Shape.rectangle ~w:60 ~h:160; Shape.rectangle ~w:100 ~h:100 ]
    ~pins:
      [ Builder.on ~name:"i" ~net:"dout" Pin.Any_edge;
        Builder.on ~name:"ck" ~net:"clk" Pin.Any_edge;
        Builder.on ~name:"m0" ~net:"bus0" Pin.Any_edge;
        Builder.on ~name:"m3" ~net:"bus3" Pin.Any_edge ]
    ();
  Builder.build b

let () =
  let nl = netlist () in
  Format.printf "input: %a@." Netlist.pp_summary nl;
  Array.iter
    (fun (c : Cell.t) -> Format.printf "  %a@." Cell.pp c)
    nl.Netlist.cells;
  let params = { Twmc_place.Params.default with Twmc_place.Params.a_c = 150 } in
  let rr = Twmc.Flow.run_resilient ~params ~seed:5 nl in
  let r =
    match rr.Twmc.Flow.flow with
    | Some r -> r
    | None ->
        Format.printf "no result (%s)@."
          (Twmc.Flow.status_to_string rr.Twmc.Flow.status);
        exit 1
  in
  Format.printf "%a@." Twmc.Flow.pp_result r;
  let p = r.Twmc.Flow.stage2.Twmc.Stage2.placement in
  Array.iteri
    (fun ci (c : Cell.t) ->
      let x, y = Twmc_place.Placement.cell_pos p ci in
      let v = Twmc_place.Placement.cell_variant p ci in
      let shape = (Cell.variant c v).Cell.shape in
      Format.printf "  %-6s at (%4d,%4d) orient=%-4s variant=%d (%dx%d)@."
        c.Cell.name x y
        (Twmc_geometry.Orient.to_string (Twmc_place.Placement.cell_orient p ci))
        v (Shape.width shape) (Shape.height shape);
      (* Show where the annealer put the sequenced bus pins. *)
      Array.iteri
        (fun pi (pin : Pin.t) ->
          if pin.Pin.group = Some 1 then
            let px, py = Twmc_place.Placement.pin_position p ~cell:ci ~pin:pi in
            Format.printf "      pin %-3s (seq %d) -> (%d,%d)@." pin.Pin.name
              (Option.value ~default:(-1) pin.Pin.seq)
              px py)
        c.Cell.pins)
    nl.Netlist.cells
