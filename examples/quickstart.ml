(* Quickstart: build a small macro-cell netlist with the Builder API, run
   the complete TimberWolfMC flow, and inspect the result.

       dune exec examples/quickstart.exe *)

open Twmc_netlist
module Shape = Twmc_geometry.Shape

let netlist () =
  let b = Builder.create ~name:"quickstart" ~track_spacing:2 in
  (* Four macro blocks around a rectilinear controller. *)
  Builder.add_macro b ~name:"ram0"
    ~shape:(Shape.rectangle ~w:120 ~h:80)
    ~pins:
      [ Builder.at ~name:"a" ~net:"addr" (0, 40);
        Builder.at ~name:"d" ~net:"data" (120, 40);
        Builder.at ~name:"ck" ~net:"clk" (60, 0) ];
  Builder.add_macro b ~name:"ram1"
    ~shape:(Shape.rectangle ~w:120 ~h:80)
    ~pins:
      [ Builder.at ~name:"a" ~net:"addr" (0, 40);
        Builder.at ~name:"d" ~net:"data2" (120, 40);
        Builder.at ~name:"ck" ~net:"clk" (60, 0) ];
  Builder.add_macro b ~name:"alu"
    ~shape:(Shape.l_shape ~w:140 ~h:100 ~notch_w:50 ~notch_h:40)
    ~pins:
      [ Builder.at ~name:"x" ~net:"data" (0, 50);
        Builder.at ~name:"y" ~net:"data2" (140, 30);
        Builder.at ~name:"z" ~net:"result" (70, 0);
        Builder.at ~name:"ck" ~net:"clk" (70, 100) ];
  Builder.add_macro b ~name:"regs"
    ~shape:(Shape.rectangle ~w:90 ~h:90)
    ~pins:
      [ Builder.at ~name:"in" ~net:"result" (0, 45);
        Builder.at ~name:"out" ~net:"addr" (90, 45);
        Builder.at ~name:"ck" ~net:"clk" (45, 90) ];
  (* A soft controller whose aspect ratio the annealer selects, with
     uncommitted pins the annealer places on its boundary. *)
  Builder.add_custom b ~name:"ctl" ~area:6000 ~aspect_lo:0.5 ~aspect_hi:2.0
    ~pins:
      [ Builder.on ~name:"c0" ~net:"clk" Pin.Any_edge;
        Builder.on ~name:"c1" ~net:"addr" Pin.Any_edge;
        Builder.on ~name:"c2" ~net:"data" (Pin.Sides [ Side.Left; Side.Right ]);
        Builder.on ~name:"c3" ~net:"result" Pin.Any_edge ]
    ();
  Builder.build b

let () =
  let nl = netlist () in
  Format.printf "input: %a@." Netlist.pp_summary nl;
  let params = { Twmc_place.Params.default with Twmc_place.Params.a_c = 100 } in
  let rr = Twmc.Flow.run_resilient ~params ~seed:7 nl in
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
      Format.printf "  %-5s at (%4d,%4d) orient=%-4s variant=%d@."
        c.Cell.name x y
        (Twmc_geometry.Orient.to_string (Twmc_place.Placement.cell_orient p ci))
        (Twmc_place.Placement.cell_variant p ci))
    nl.Netlist.cells;
  match r.Twmc.Flow.stage2.Twmc.Stage2.final_route with
  | Some route ->
      Format.printf "global routing: %d nets routed, total length %d, overflow %d@."
        (List.length route.Twmc_route.Global_router.routed)
        route.Twmc_route.Global_router.total_length
        route.Twmc_route.Global_router.overflow
  | None -> ()
