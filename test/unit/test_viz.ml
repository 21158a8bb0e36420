(* Tests for the SVG rendering library. *)

module Rect = Twmc_geometry.Rect
module Svg = Twmc_viz.Svg

let checkb = Alcotest.(check bool)
let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let test_svg_builder () =
  let svg =
    Svg.create ~viewport:(Rect.make ~x0:0 ~y0:0 ~x1:100 ~y1:50) ~margin:5 ()
  in
  Svg.rect svg ~fill:"red" (Rect.make ~x0:10 ~y0:10 ~x1:20 ~y1:20);
  Svg.line svg ~dashed:true (0, 0) (100, 50);
  Svg.circle svg (50, 25);
  Svg.text svg (1, 1) "a<b&c";
  let s = Svg.to_string svg in
  checkb "svg root" true (contains s "<svg xmlns");
  checkb "rect present" true (contains s "fill=\"red\"");
  checkb "dash present" true (contains s "stroke-dasharray");
  checkb "circle present" true (contains s "<circle");
  checkb "text escaped" true (contains s "a&lt;b&amp;c");
  checkb "closes" true (contains s "</svg>");
  (* y-flip: layout y=0 is the bottom, so it maps to the largest SVG y.
     The text at layout (1,1) must sit near the bottom: y ≈ 5 + 49. *)
  checkb "y flipped" true (contains s "y=\"54.0\"")

let test_svg_errors () =
  Alcotest.check_raises "empty viewport"
    (Invalid_argument "Svg.create: empty viewport") (fun () ->
      ignore (Svg.create ~viewport:Rect.empty ()))

let flow_result =
  lazy
    (let nl =
       Twmc_workload.Synth.generate ~seed:51
         { Twmc_workload.Synth.default_spec with
           Twmc_workload.Synth.n_cells = 6;
           n_nets = 14;
           n_pins = 50 }
     in
     let params =
       { Twmc_place.Params.default with Twmc_place.Params.a_c = 20; m_routes = 4 }
     in
     match (Twmc.Flow.run_resilient ~params ~seed:6 nl).Twmc.Flow.flow with
     | Some r -> r
     | None -> Alcotest.fail "flow produced no result")

let test_render_placement () =
  let r = Lazy.force flow_result in
  let p = r.Twmc.Flow.stage2.Twmc.Stage2.placement in
  let s = Svg.to_string (Twmc_viz.Render.placement p) in
  checkb "nonempty" true (String.length s > 500);
  (* One label per cell. *)
  checkb "cell names shown" true (contains s ">c0</text>" && contains s ">c5</text>")

let test_render_channels_routes () =
  let r = Lazy.force flow_result in
  let p = r.Twmc.Flow.stage2.Twmc.Stage2.placement in
  match r.Twmc.Flow.stage2.Twmc.Stage2.final_route with
  | None -> Alcotest.fail "no route"
  | Some route ->
      let ch =
        Svg.to_string
          (Twmc_viz.Render.channels p route.Twmc_route.Global_router.graph)
      in
      checkb "regions drawn" true (contains ch "#93c47d");
      checkb "graph edges drawn" true (contains ch "stroke-dasharray");
      let rt = Svg.to_string (Twmc_viz.Render.routed p route) in
      checkb "routes drawn" true (contains rt "#cc0000" || contains rt "#1155cc")

let () =
  Alcotest.run "viz"
    [ ( "svg",
        [ Alcotest.test_case "builder" `Quick test_svg_builder;
          Alcotest.test_case "errors" `Quick test_svg_errors ] );
      ( "render",
        [ Alcotest.test_case "placement" `Quick test_render_placement;
          Alcotest.test_case "channels/routes" `Quick test_render_channels_routes ] ) ]
