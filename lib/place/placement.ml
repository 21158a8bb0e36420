open Twmc_geometry
open Twmc_netlist

type expander =
  | No_expansion
  | Dynamic of Twmc_estimator.Dynamic_area.t
  | Static of (int * int * int * int) array

type cell_state = {
  mutable x : int;
  mutable y : int;
  mutable orient : Orient.t;
  mutable variant : int;
  (* The arrays below are owned by the cell and updated in place: a pin
     move writes ints into long-lived arrays instead of installing fresh
     tuples the minor GC would have to promote. *)
  sites : int array;
  mutable abs_tiles : Rect.t list;
  mutable exp_tiles : Rect.t list;
  pin_x : int array;
  pin_y : int array;
  mutable bbox : Rect.t;
}

(* Simulated state of one cell touched by the moves [delta_cost] is
   evaluating: a preallocated slot, overwritten in place, whose arrays are
   sized for the netlist's largest cell. *)
type sim_cell = {
  mutable m_ci : int;
  mutable m_x : int;
  mutable m_y : int;
  mutable m_orient : Orient.t;
  mutable m_variant : int;
  m_sites : int array;
  m_px : int array;
  m_py : int array;
  mutable m_abs : Rect.t list;
  mutable m_exp : Rect.t list;
  mutable m_bbox : Rect.t;
  m_c3 : float array;  (* one entry: an unboxed store *)
}

(* The cost accumulators.  An all-float record is stored flat, so updating
   a term writes an unboxed float instead of allocating one. *)
type terms = {
  mutable c1 : float;
  mutable c2 : float;
  mutable c3 : float;
  mutable c4 : float;
  mutable teil : float;
}

let zero_terms () = { c1 = 0.0; c2 = 0.0; c3 = 0.0; c4 = 0.0; teil = 0.0 }

type t = {
  nl : Netlist.t;
  prm : Params.t;
  mutable core : Rect.t;
  mutable expander : expander;
  cells : cell_state array;
  net_c1 : float array;
  net_len : float array;
  (* nets_of_cell as arrays, in the list's order: the C1/TEIL float
     accumulator chains depend on it. *)
  cell_nets : int array array;
  cell_c3 : float array;
  (* Placement constraints (netlist order) and their cached integer-valued
     penalties; [cons_of_cell.(ci)] lists the constraint slots that must
     re-evaluate when cell [ci]'s geometry changes (ascending order — the
     C4 accumulator chain depends on it). *)
  cons : Constr.t array;
  cpen : float array;
  cons_of_cell : int array array;
  (* Per-cell pin-site tables (allowed sites, groups, edge ranges). *)
  tables : Sites.table array;
  cost : terms;
  mutable p2v : float;
  (* Spatial index of expanded-tile bboxes, keyed by cell index; kept in
     sync with [cell_state.bbox] and rebuilt by [recompute_all]. *)
  mutable idx : Spatial.t;
  (* Scratch: index query results, one slot per cell. *)
  cand : int array;
  (* Scratch for [delta_cost]: the simulated C1..C4/TEIL accumulators;
     per-net simulated C1 and length, valid when the stamp matches the
     current simulation pass; site occupancy (also [recompute_all]'s). *)
  sim : terms;
  sim_net_c1 : float array;
  sim_net_len : float array;
  sim_net_stamp : int array;
  sim_occ : int array;
  (* Same device for simulated constraint penalties. *)
  sim_cpen : float array;
  sim_cpen_stamp : int array;
  mutable sim_stamp : int;
  (* The last [delta_cost] pass may still be committed: no mutation and no
     [recompute_all] since. *)
  mutable live : bool;
  (* Pending cells of the current pass: cell [ci] is pending when
     [pend_stamp.(ci) = sim_stamp], and then lives in
     [pool.(pend_slot.(ci))]; slots [0 .. n_pending-1] are in use.  The
     pool starts with two slots (an interchange) and grows on demand. *)
  pend_stamp : int array;
  pend_slot : int array;
  mutable pool : sim_cell array;
  mutable n_pending : int;
  (* Lazy caches of orientation-transformed geometry, keyed
     [cell][variant][orient]. *)
  tiles_cache : Rect.t list option array array array;
  sites_cache : (int * int) array option array array array;
  fixed_cache : (int * int) array option array array;  (* [cell][orient] *)
}

let netlist t = t.nl
let params t = t.prm
let core t = t.core

(* ------------------------------------------------------------------ *)
(* Geometry caches                                                     *)

let cached_tiles t ci vi o =
  let oi = Orient.to_int o in
  match t.tiles_cache.(ci).(vi).(oi) with
  | Some tiles -> tiles
  | None ->
      let shape = (Cell.variant t.nl.Netlist.cells.(ci) vi).Cell.shape in
      let tiles = Shape.tiles (Shape.transform o shape) in
      t.tiles_cache.(ci).(vi).(oi) <- Some tiles;
      tiles

let cached_sites t ci vi o =
  let oi = Orient.to_int o in
  match t.sites_cache.(ci).(vi).(oi) with
  | Some a -> a
  | None ->
      let v = Cell.variant t.nl.Netlist.cells.(ci) vi in
      let a =
        Array.map
          (fun (s : Pin_site.t) -> Orient.apply o (s.Pin_site.x, s.Pin_site.y))
          v.Cell.sites
      in
      t.sites_cache.(ci).(vi).(oi) <- Some a;
      a

let cached_fixed t ci o =
  let oi = Orient.to_int o in
  match t.fixed_cache.(ci).(oi) with
  | Some a -> a
  | None ->
      let c = t.nl.Netlist.cells.(ci) in
      let a =
        Array.map
          (fun (p : Pin.t) ->
            match p.Pin.loc with
            | Pin.Fixed (x, y) -> Orient.apply o (x, y)
            | Pin.Uncommitted _ -> (0, 0))
          c.Cell.pins
      in
      t.fixed_cache.(ci).(oi) <- Some a;
      a

(* ------------------------------------------------------------------ *)
(* Tile expansion                                                      *)

let expand_tile t ci vi (r : Rect.t) =
  match t.expander with
  | No_expansion -> r
  | Dynamic est ->
      (* The modulation functions live in core-centered coordinates. *)
      let ccx, ccy = Rect.center t.core in
      let shifted = Rect.translate r ~dx:(-ccx) ~dy:(-ccy) in
      let left, right, bottom, top =
        Twmc_estimator.Dynamic_area.tile_expansions est ~cell:ci ~variant:vi
          shifted
      in
      Rect.expand r ~left ~right ~bottom ~top
  | Static exps ->
      let left, right, bottom, top = exps.(ci) in
      Rect.expand r ~left ~right ~bottom ~top

(* ------------------------------------------------------------------ *)
(* Spatial index                                                       *)

let make_index t =
  let n = Array.length t.cells in
  let g =
    max 4 (min 64 (2 * int_of_float (ceil (sqrt (float_of_int (max 1 n))))))
  in
  let extent = max (Rect.width t.core) (Rect.height t.core) in
  Spatial.create ~world:t.core ~cell_size:(max 1 ((extent + g - 1) / g))

(* ------------------------------------------------------------------ *)
(* Per-cell geometry                                                   *)

(* Recursion rather than [List.map] with a closure; the tile lists are a
   handful of rectangles. *)
let rec translate_tiles tiles ~dx ~dy =
  match tiles with
  | [] -> []
  | r :: rest ->
      let r = Rect.translate r ~dx ~dy in
      r :: translate_tiles rest ~dx ~dy

let rec expand_tiles t ci vi = function
  | [] -> []
  | r :: rest ->
      let r = expand_tile t ci vi r in
      r :: expand_tiles t ci vi rest

let bbox_of = function
  | [] -> Rect.empty
  | r :: rest -> List.fold_left Rect.hull r rest

(* Absolute positions of every pin of cell [ci] at center [(x, y)] in the
   given variant and orientation, written into [px]/[py].  A sites-only
   move rewrites the fixed pins with the values they already hold. *)
let fill_pin_positions t ci ~x ~y ~variant ~orient ~sites px py =
  let pins = t.nl.Netlist.cells.(ci).Cell.pins in
  let fixed = cached_fixed t ci orient in
  let site_pos = cached_sites t ci variant orient in
  for p = 0 to Array.length pins - 1 do
    let lx, ly =
      match pins.(p).Pin.loc with
      | Pin.Fixed _ -> fixed.(p)
      | Pin.Uncommitted _ -> site_pos.(sites.(p))
    in
    px.(p) <- x + lx;
    py.(p) <- y + ly
  done

(* Rebuild cell [ci]'s tiles and pin positions from its placement, and
   enter its bbox in a freshly made index. *)
let refresh_cell t ci =
  let cs = t.cells.(ci) in
  cs.abs_tiles <-
    translate_tiles (cached_tiles t ci cs.variant cs.orient) ~dx:cs.x ~dy:cs.y;
  cs.exp_tiles <- expand_tiles t ci cs.variant cs.abs_tiles;
  cs.bbox <- bbox_of cs.exp_tiles;
  Spatial.insert t.idx ci cs.bbox;
  fill_pin_positions t ci ~x:cs.x ~y:cs.y ~variant:cs.variant
    ~orient:cs.orient ~sites:cs.sites cs.pin_x cs.pin_y

(* The C1 and TEIL contributions of a net with spans [dx], [dy]: the one
   float expression both [delta_cost] and [recompute_all] evaluate.
   Inlined so the floats stay unboxed. *)
let[@inline] net_c1_of (net : Net.t) ~dx ~dy =
  (dx *. net.Net.hweight) +. (dy *. net.Net.vweight)

let[@inline] net_len_of ~dx ~dy = dx +. dy

(* ------------------------------------------------------------------ *)
(* Cost terms                                                          *)

(* Overlap areas are exact integer sums, so any enumeration order of the
   pairs gives the same total; accumulator-passing recursion keeps them
   free of closures and boxed refs. *)
let rec tile_overlap ra tiles_b acc =
  match tiles_b with
  | [] -> acc
  | rb :: rest -> tile_overlap ra rest (acc + Rect.inter_area ra rb)

let rec tiles_overlap tiles_a tiles_b acc =
  match tiles_a with
  | [] -> acc
  | ra :: rest -> tiles_overlap rest tiles_b (tile_overlap ra tiles_b acc)

(* Area of the tiles outside the core: overlap with the four core-boundary
   dummy cells (footnote 16). *)
let rec boundary_overlap core tiles acc =
  match tiles with
  | [] -> acc
  | r :: rest ->
      boundary_overlap core rest (acc + (Rect.area r - Rect.inter_area r core))

(* Overlap of cell [ci]'s expanded tiles against every other cell and the
   core-boundary dummies.  Only the index's candidate neighbors are
   visited; the total is an exact integer sum, so any enumeration of a
   superset of the overlapping pairs yields the identical float. *)
let cell_overlap t ci =
  let cs = t.cells.(ci) in
  let total = ref (boundary_overlap t.core cs.exp_tiles 0) in
  let n = Spatial.query_into t.idx cs.bbox t.cand in
  for i = 0 to n - 1 do
    let cj = t.cand.(i) in
    if cj <> ci then begin
      let other = t.cells.(cj) in
      if Rect.overlaps cs.bbox other.bbox then
        total := tiles_overlap cs.exp_tiles other.exp_tiles !total
    end
  done;
  float_of_int !total

(* The neighbors [cell_overlap] visits for cell [ci]: the index's
   candidates for its bbox, [ci] itself excluded. *)
let overlap_candidates t ci =
  let n = Spatial.query_into t.idx t.cells.(ci).bbox t.cand in
  let others = ref 0 in
  for i = 0 to n - 1 do
    if t.cand.(i) <> ci then incr others
  done;
  !others

(* Site occupancy of cell [ci] under [variant]/[sites], written into the
   first [n_sites] entries of [occ]. *)
let fill_occupancy t ci ~variant ~sites occ =
  let c = t.nl.Netlist.cells.(ci) in
  Array.fill occ 0 (Array.length (Cell.variant c variant).Cell.sites) 0;
  let pins = c.Cell.pins in
  for p = 0 to Array.length pins - 1 do
    match pins.(p).Pin.loc with
    | Pin.Uncommitted _ -> occ.(sites.(p)) <- occ.(sites.(p)) + 1
    | Pin.Fixed _ -> ()
  done

let c3_of_occ t ci ~variant occ =
  let sites = (Cell.variant t.nl.Netlist.cells.(ci) variant).Cell.sites in
  let kappa = t.prm.Params.kappa in
  let total = ref 0.0 in
  for s = 0 to Array.length sites - 1 do
    let cap = sites.(s).Pin_site.capacity in
    if occ.(s) > cap then begin
      let e = float_of_int (occ.(s) - cap + kappa) in
      total := !total +. (e *. e)
    end
  done;
  !total

(* ------------------------------------------------------------------ *)
(* Constraint penalties (C4)                                           *)

(* Whole-constraint evaluation against the committed state.  [Constr.eval]
   returns an exact integer, so the float accumulator chains built on it
   cancel exactly. *)
let eval_constraint t k =
  float_of_int
    (Constr.eval ~n_cells:(Array.length t.cells)
       ~tiles:(fun ci -> t.cells.(ci).abs_tiles)
       ~pos:(fun ci -> (t.cells.(ci).x, t.cells.(ci).y))
       ~core:t.core t.cons.(k))

(* ------------------------------------------------------------------ *)
(* Full recomputation                                                  *)

let recompute_all t =
  t.live <- false;
  t.idx <- make_index t;
  Array.iteri (fun ci _ -> refresh_cell t ci) t.cells;
  t.cost.c1 <- 0.0;
  t.cost.teil <- 0.0;
  let nets = t.nl.Netlist.nets in
  for n = 0 to Array.length nets - 1 do
    let pins = nets.(n).Net.pins in
    let minx = ref max_int and maxx = ref min_int in
    let miny = ref max_int and maxy = ref min_int in
    for i = 0 to Array.length pins - 1 do
      let r = pins.(i) in
      let cs = t.cells.(r.Net.cell) in
      let x = cs.pin_x.(r.Net.pin) and y = cs.pin_y.(r.Net.pin) in
      if x < !minx then minx := x;
      if x > !maxx then maxx := x;
      if y < !miny then miny := y;
      if y > !maxy then maxy := y
    done;
    let dx = float_of_int (!maxx - !minx)
    and dy = float_of_int (!maxy - !miny) in
    let c1 = net_c1_of nets.(n) ~dx ~dy and len = net_len_of ~dx ~dy in
    t.net_c1.(n) <- c1;
    t.net_len.(n) <- len;
    t.cost.c1 <- t.cost.c1 +. c1;
    t.cost.teil <- t.cost.teil +. len
  done;
  t.cost.c3 <- 0.0;
  Array.iteri
    (fun ci cs ->
      fill_occupancy t ci ~variant:cs.variant ~sites:cs.sites t.sim_occ;
      t.cell_c3.(ci) <- c3_of_occ t ci ~variant:cs.variant t.sim_occ;
      t.cost.c3 <- t.cost.c3 +. t.cell_c3.(ci))
    t.cells;
  (* Each unordered pair counted once; cell_overlap counts both directions,
     and the boundary term once per cell.  Deliberately the full O(n^2)
     scan, independent of the index: this is the drift oracle the
     incremental path is checked against. *)
  let pairwise = ref 0.0 and boundary = ref 0.0 in
  Array.iteri
    (fun ci cs ->
      List.iter
        (fun r ->
          boundary :=
            !boundary +. float_of_int (Rect.area r - Rect.inter_area r t.core))
        cs.exp_tiles;
      Array.iteri
        (fun cj other ->
          if cj > ci && Rect.overlaps cs.bbox other.bbox then
            List.iter
              (fun ra ->
                List.iter
                  (fun rb ->
                    pairwise := !pairwise +. float_of_int (Rect.inter_area ra rb))
                  other.exp_tiles)
              cs.exp_tiles)
        t.cells)
    t.cells;
  t.cost.c2 <- !pairwise +. !boundary;
  t.cost.c4 <- 0.0;
  Array.iteri
    (fun k _ ->
      let v = eval_constraint t k in
      t.cpen.(k) <- v;
      t.cost.c4 <- t.cost.c4 +. v)
    t.cons

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)

let max_sites (c : Cell.t) =
  Array.fold_left
    (fun acc (v : Cell.variant) -> max acc (Array.length v.Cell.sites))
    0 c.Cell.variants

let make_sim_cell ~max_pins =
  { m_ci = -1;
    m_x = 0;
    m_y = 0;
    m_orient = Orient.R0;
    m_variant = 0;
    m_sites = Array.make max_pins 0;
    m_px = Array.make max_pins 0;
    m_py = Array.make max_pins 0;
    m_abs = [];
    m_exp = [];
    m_bbox = Rect.empty;
    m_c3 = [| 0.0 |] }

let create ~params ~core ~expander ~rng (nl : Netlist.t) =
  if Rect.is_empty core then invalid_arg "Placement.create: empty core";
  let n = Netlist.n_cells nl in
  let tables = Array.map Sites.table nl.Netlist.cells in
  let cells =
    Array.init n (fun ci ->
        let c = nl.Netlist.cells.(ci) in
        { x = Twmc_sa.Rng.int_incl rng core.Rect.x0 core.Rect.x1;
          y = Twmc_sa.Rng.int_incl rng core.Rect.y0 core.Rect.y1;
          orient = Orient.R0;
          variant = 0;
          sites = Sites.random_assignment rng tables.(ci) ~variant:0;
          abs_tiles = [];
          exp_tiles = [];
          pin_x = Array.make (Cell.n_pins c) 0;
          pin_y = Array.make (Cell.n_pins c) 0;
          bbox = Rect.empty })
  in
  (* Preplaced macros start at their target, overriding the random draw
     (the draw still happens, keeping RNG consumption uniform per cell). *)
  Array.iter
    (function
      | Constr.Fixed { cell; x; y } ->
          cells.(cell).x <- x;
          cells.(cell).y <- y
      | _ -> ())
    nl.Netlist.constraints;
  let cons = nl.Netlist.constraints in
  let cons_of_cell =
    Array.init n (fun ci ->
        let acc = ref [] in
        Array.iteri
          (fun k c ->
            let touches =
              match Constr.scope c with
              | None -> true
              | Some cells -> List.mem ci cells
            in
            if touches then acc := k :: !acc)
          cons;
        Array.of_list (List.rev !acc))
  in
  let n_nets = Netlist.n_nets nl in
  let cell_nets = Array.map Array.of_list nl.Netlist.nets_of_cell in
  let max_pins =
    Array.fold_left (fun acc c -> max acc (Cell.n_pins c)) 0 nl.Netlist.cells
  in
  let max_sites_all =
    Array.fold_left (fun acc c -> max acc (max_sites c)) 0 nl.Netlist.cells
  in
  let t =
    { nl;
      prm = params;
      core;
      expander;
      cells;
      net_c1 = Array.make n_nets 0.0;
      net_len = Array.make n_nets 0.0;
      cell_nets;
      cell_c3 = Array.make n 0.0;
      cons;
      cpen = Array.make (Array.length cons) 0.0;
      cons_of_cell;
      tables;
      cost = zero_terms ();
      p2v = 1.0;
      (* Placeholder one-bin index; [recompute_all] installs the real one. *)
      idx =
        Spatial.create ~world:core
          ~cell_size:(max 1 (max (Rect.width core) (Rect.height core)));
      cand = Array.make n 0;
      sim = zero_terms ();
      sim_net_c1 = Array.make n_nets 0.0;
      sim_net_len = Array.make n_nets 0.0;
      sim_net_stamp = Array.make n_nets 0;
      sim_occ = Array.make max_sites_all 0;
      sim_cpen = Array.make (Array.length cons) 0.0;
      sim_cpen_stamp = Array.make (Array.length cons) 0;
      sim_stamp = 0;
      live = false;
      pend_stamp = Array.make n 0;
      pend_slot = Array.make n 0;
      pool = Array.init 2 (fun _ -> make_sim_cell ~max_pins);
      n_pending = 0;
      tiles_cache =
        Array.init n (fun ci ->
            Array.init (Cell.n_variants nl.Netlist.cells.(ci)) (fun _ ->
                Array.make 8 None));
      sites_cache =
        Array.init n (fun ci ->
            Array.init (Cell.n_variants nl.Netlist.cells.(ci)) (fun _ ->
                Array.make 8 None));
      fixed_cache = Array.init n (fun _ -> Array.make 8 None) }
  in
  recompute_all t;
  t

let expander t = t.expander

let set_expander t e =
  t.expander <- e;
  recompute_all t

let set_core t core =
  if Rect.is_empty core then invalid_arg "Placement.set_core: empty core";
  t.core <- core;
  recompute_all t

(* ------------------------------------------------------------------ *)
(* Accessors                                                           *)

let cell_pos t ci = (t.cells.(ci).x, t.cells.(ci).y)
let cell_orient t ci = t.cells.(ci).orient
let cell_variant t ci = t.cells.(ci).variant
let site_of_pin t ~cell ~pin = t.cells.(cell).sites.(pin)
let site_table t ci = t.tables.(ci)
let pin_position t ~cell ~pin =
  (t.cells.(cell).pin_x.(pin), t.cells.(cell).pin_y.(pin))
let abs_tiles t ci = t.cells.(ci).abs_tiles
let expanded_tiles t ci = t.cells.(ci).exp_tiles
let c1 t = t.cost.c1
let c2_raw t = t.cost.c2
let c3 t = t.cost.c3
let c4 t = t.cost.c4
let p2 t = t.p2v
let set_p2 t v = t.p2v <- v
let teil t = t.cost.teil
let n_constraints t = Array.length t.cons
let constraints t = t.cons
let constraint_penalty t k = t.cpen.(k)

(* The unconstrained expression is kept verbatim so netlists without
   constraints produce bit-identical costs (and trajectories) to the
   pre-constraint engine. *)
let total_cost t =
  let base =
    t.cost.c1 +. (t.p2v *. t.cost.c2) +. (t.prm.Params.p3 *. t.cost.c3)
  in
  if Array.length t.cons = 0 then base
  else base +. (t.prm.Params.p4 *. t.cost.c4)

let chip_bbox t =
  Array.fold_left
    (fun acc cs -> List.fold_left Rect.hull acc cs.exp_tiles)
    Rect.empty t.cells

(* ------------------------------------------------------------------ *)
(* Trials: simulate, then commit                                       *)

type move =
  | Cell_move of {
      ci : int;
      x : int option;
      y : int option;
      orient : Orient.t option;
      variant : int option;
      sites : int array option;
    }
  | Sites_move of { ci : int; sites : int array }

(* The one mutation path.  [delta_cost] simulates the moves on a pool of
   pending cells, chaining every cost accumulator as applying them would;
   [commit] installs exactly that simulated state, so an accepted trial is
   costed once and the committed accumulators are the ones the Metropolis
   test saw.  [set_cell] is a one-move simulate-and-commit.  Everything
   below runs on preallocated scratch: no closures, options or tuples per
   trial. *)

let[@inline] is_pending t ci = t.pend_stamp.(ci) = t.sim_stamp

(* Rescan every net of cell [ci] over effective pin positions and chain the
   C1 and TEIL changes. *)
let sim_update_nets t ci =
  let stamp = t.sim_stamp in
  let nets = t.cell_nets.(ci) in
  for k = 0 to Array.length nets - 1 do
    let n = nets.(k) in
    let net = t.nl.Netlist.nets.(n) in
    let pins = net.Net.pins in
    let minx = ref max_int and maxx = ref min_int in
    let miny = ref max_int and maxy = ref min_int in
    for i = 0 to Array.length pins - 1 do
      let r = pins.(i) in
      let c = r.Net.cell and p = r.Net.pin in
      let x, y =
        if is_pending t c then
          let pc = t.pool.(t.pend_slot.(c)) in
          (pc.m_px.(p), pc.m_py.(p))
        else
          let cs = t.cells.(c) in
          (cs.pin_x.(p), cs.pin_y.(p))
      in
      if x < !minx then minx := x;
      if x > !maxx then maxx := x;
      if y < !miny then miny := y;
      if y > !maxy then maxy := y
    done;
    let dx = float_of_int (!maxx - !minx)
    and dy = float_of_int (!maxy - !miny) in
    let c1' = net_c1_of net ~dx ~dy and len' = net_len_of ~dx ~dy in
    let stamped = t.sim_net_stamp.(n) = stamp in
    let prev_c1 = if stamped then t.sim_net_c1.(n) else t.net_c1.(n)
    and prev_len = if stamped then t.sim_net_len.(n) else t.net_len.(n) in
    t.sim.c1 <- t.sim.c1 -. prev_c1 +. c1';
    t.sim.teil <- t.sim.teil -. prev_len +. len';
    t.sim_net_c1.(n) <- c1';
    t.sim_net_len.(n) <- len';
    t.sim_net_stamp.(n) <- stamp
  done

(* Overlap of an effective tile set: index candidates carry the committed
   geometry, so pending cells are skipped there and added back with their
   simulated geometry.  Integer sum — enumeration order is irrelevant. *)
let sim_overlap t ci exp bbox =
  let total = ref (boundary_overlap t.core exp 0) in
  let n = Spatial.query_into t.idx bbox t.cand in
  for i = 0 to n - 1 do
    let cj = t.cand.(i) in
    if cj <> ci && not (is_pending t cj) then begin
      let other = t.cells.(cj) in
      if Rect.overlaps bbox other.bbox then
        total := tiles_overlap exp other.exp_tiles !total
    end
  done;
  for s = 0 to t.n_pending - 1 do
    let pc = t.pool.(s) in
    if pc.m_ci <> ci && Rect.overlaps bbox pc.m_bbox then
      total := tiles_overlap exp pc.m_exp !total
  done;
  !total

(* Simulated occupancy of [pc]'s sites and the C3 chain. *)
let sim_occupancy t pc =
  fill_occupancy t pc.m_ci ~variant:pc.m_variant ~sites:pc.m_sites t.sim_occ;
  let c3' = c3_of_occ t pc.m_ci ~variant:pc.m_variant t.sim_occ in
  t.sim.c3 <- t.sim.c3 -. pc.m_c3.(0) +. c3';
  pc.m_c3.(0) <- c3'

(* Effective constraint evaluation over pending-aware views. *)
let sim_eval_constraint t k =
  float_of_int
    (Constr.eval ~n_cells:(Array.length t.cells)
       ~tiles:(fun ci ->
         if is_pending t ci then t.pool.(t.pend_slot.(ci)).m_abs
         else t.cells.(ci).abs_tiles)
       ~pos:(fun ci ->
         if is_pending t ci then
           let pc = t.pool.(t.pend_slot.(ci)) in
           (pc.m_x, pc.m_y)
         else (t.cells.(ci).x, t.cells.(ci).y))
       ~core:t.core t.cons.(k))

let sim_constraints t ci =
  let ks = t.cons_of_cell.(ci) in
  for i = 0 to Array.length ks - 1 do
    let k = ks.(i) in
    let v = sim_eval_constraint t k in
    let prev =
      if t.sim_cpen_stamp.(k) = t.sim_stamp then t.sim_cpen.(k) else t.cpen.(k)
    in
    t.sim.c4 <- t.sim.c4 -. prev +. v;
    t.sim_cpen.(k) <- v;
    t.sim_cpen_stamp.(k) <- t.sim_stamp
  done

(* The pool slot holding [ci]'s effective state for this pass: its own
   when it is already pending, else the next free slot (the pool grows
   when a move list touches more cells than it has slots), loaded from the
   committed cell. *)
let pending_view t ci =
  if is_pending t ci then t.pool.(t.pend_slot.(ci))
  else begin
    let slot = t.n_pending in
    if slot = Array.length t.pool then begin
      let max_pins = Array.length t.pool.(0).m_px in
      t.pool <-
        Array.append t.pool
          (Array.init slot (fun _ -> make_sim_cell ~max_pins))
    end;
    t.n_pending <- slot + 1;
    t.pend_stamp.(ci) <- t.sim_stamp;
    t.pend_slot.(ci) <- slot;
    let pc = t.pool.(slot) and cs = t.cells.(ci) in
    let n = Array.length cs.sites in
    pc.m_ci <- ci;
    pc.m_x <- cs.x;
    pc.m_y <- cs.y;
    pc.m_orient <- cs.orient;
    pc.m_variant <- cs.variant;
    Array.blit cs.sites 0 pc.m_sites 0 n;
    Array.blit cs.pin_x 0 pc.m_px 0 n;
    Array.blit cs.pin_y 0 pc.m_py 0 n;
    pc.m_abs <- cs.abs_tiles;
    pc.m_exp <- cs.exp_tiles;
    pc.m_bbox <- cs.bbox;
    pc.m_c3.(0) <- t.cell_c3.(ci);
    pc
  end

let rec mem_from x a i =
  i < Array.length a && (a.(i) = x || mem_from x a (i + 1))

(* Clamp a site assignment into [variant]'s site array, honouring edge
   restrictions: a site still allowed stays, any other moves to the first
   allowed site.  Mutates the first [n_pins] entries of [sites] in place. *)
let reclamp_sites (tbl : Sites.table) ~variant sites =
  let c = tbl.Sites.cell in
  let n_sites = Array.length (Cell.variant c variant).Cell.sites in
  let allowed = tbl.Sites.allowed.(variant) in
  for p = 0 to Cell.n_pins c - 1 do
    let s = sites.(p) in
    if s >= 0 then begin
      let s = if s < n_sites then s else s mod max 1 n_sites in
      let a = allowed.(p) in
      sites.(p) <-
        (if mem_from s a 0 then s
         else if Array.length a = 0 then
           invalid_arg
             "Placement.set_cell: pin has no allowed site in new variant"
         else a.(0))
    end
  done

(* A pin move: geometry untouched, so C2 cannot change. *)
let sim_sites_move t ci sites =
  let pc = pending_view t ci in
  Array.blit sites 0 pc.m_sites 0 (Cell.n_pins t.nl.Netlist.cells.(ci));
  fill_pin_positions t ci ~x:pc.m_x ~y:pc.m_y ~variant:pc.m_variant
    ~orient:pc.m_orient ~sites:pc.m_sites pc.m_px pc.m_py;
  sim_update_nets t ci;
  sim_occupancy t pc

(* A sites-only [Cell_move] takes the pin-move path. *)
let sim_cell_move t ci ~x ~y ~orient ~variant ~sites =
  match (x, y, orient, variant, sites) with
  | None, None, None, None, Some s -> sim_sites_move t ci s
  | _ ->
      let pc = pending_view t ci in
      (* The cell's own slot is skipped by [sim_overlap], so the prior
         overlap can be taken with the slot already claimed. *)
      let ov_old = sim_overlap t ci pc.m_exp pc.m_bbox in
      let variant_changed =
        match variant with Some v -> v <> pc.m_variant | None -> false
      in
      (match x with Some v -> pc.m_x <- v | None -> ());
      (match y with Some v -> pc.m_y <- v | None -> ());
      (match orient with Some v -> pc.m_orient <- v | None -> ());
      (match variant with Some v -> pc.m_variant <- v | None -> ());
      (match sites with
      | Some s ->
          Array.blit s 0 pc.m_sites 0 (Cell.n_pins t.nl.Netlist.cells.(ci))
      | None ->
          if variant_changed then
            reclamp_sites t.tables.(ci) ~variant:pc.m_variant pc.m_sites);
      (* Candidate geometry, built as [refresh_cell] builds it. *)
      pc.m_abs <-
        translate_tiles
          (cached_tiles t ci pc.m_variant pc.m_orient)
          ~dx:pc.m_x ~dy:pc.m_y;
      pc.m_exp <- expand_tiles t ci pc.m_variant pc.m_abs;
      pc.m_bbox <- bbox_of pc.m_exp;
      fill_pin_positions t ci ~x:pc.m_x ~y:pc.m_y ~variant:pc.m_variant
        ~orient:pc.m_orient ~sites:pc.m_sites pc.m_px pc.m_py;
      sim_update_nets t ci;
      let ov_new = sim_overlap t ci pc.m_exp pc.m_bbox in
      t.sim.c2 <-
        t.sim.c2 -. float_of_int ov_old +. float_of_int ov_new;
      if variant_changed || sites <> None then sim_occupancy t pc;
      sim_constraints t ci

let rec sim_moves t = function
  | [] -> ()
  | Cell_move { ci; x; y; orient; variant; sites } :: rest ->
      sim_cell_move t ci ~x ~y ~orient ~variant ~sites;
      sim_moves t rest
  | Sites_move { ci; sites } :: rest ->
      sim_sites_move t ci sites;
      sim_moves t rest

let delta_cost t moves =
  t.live <- false;
  t.sim_stamp <- t.sim_stamp + 1;
  t.n_pending <- 0;
  let tot0 = total_cost t in
  let sim = t.sim in
  sim.c1 <- t.cost.c1;
  sim.c2 <- t.cost.c2;
  sim.c3 <- t.cost.c3;
  sim.c4 <- t.cost.c4;
  sim.teil <- t.cost.teil;
  sim_moves t moves;
  t.live <- true;
  let base = sim.c1 +. (t.p2v *. sim.c2) +. (t.prm.Params.p3 *. sim.c3) in
  (if Array.length t.cons = 0 then base
   else base +. (t.prm.Params.p4 *. sim.c4))
  -. tot0

let commit t =
  if not t.live then invalid_arg "Placement.commit: no delta_cost pass to commit";
  t.live <- false;
  let stamp = t.sim_stamp in
  for s = 0 to t.n_pending - 1 do
    let pc = t.pool.(s) in
    let ci = pc.m_ci in
    let cs = t.cells.(ci) in
    let n_pins = Array.length cs.sites in
    cs.x <- pc.m_x;
    cs.y <- pc.m_y;
    cs.orient <- pc.m_orient;
    cs.variant <- pc.m_variant;
    Array.blit pc.m_sites 0 cs.sites 0 n_pins;
    Array.blit pc.m_px 0 cs.pin_x 0 n_pins;
    Array.blit pc.m_py 0 cs.pin_y 0 n_pins;
    cs.abs_tiles <- pc.m_abs;
    cs.exp_tiles <- pc.m_exp;
    (* A pin move leaves the slot holding the committed bbox itself. *)
    if pc.m_bbox != cs.bbox then begin
      cs.bbox <- pc.m_bbox;
      Spatial.update t.idx ci pc.m_bbox
    end;
    t.cell_c3.(ci) <- pc.m_c3.(0);
    let nets = t.cell_nets.(ci) in
    for k = 0 to Array.length nets - 1 do
      let n = nets.(k) in
      if t.sim_net_stamp.(n) = stamp then begin
        t.net_c1.(n) <- t.sim_net_c1.(n);
        t.net_len.(n) <- t.sim_net_len.(n)
      end
    done;
    let ks = t.cons_of_cell.(ci) in
    for i = 0 to Array.length ks - 1 do
      let k = ks.(i) in
      if t.sim_cpen_stamp.(k) = stamp then t.cpen.(k) <- t.sim_cpen.(k)
    done
  done;
  t.cost.c1 <- t.sim.c1;
  t.cost.c2 <- t.sim.c2;
  t.cost.c3 <- t.sim.c3;
  t.cost.c4 <- t.sim.c4;
  t.cost.teil <- t.sim.teil

let set_cell t ci ?x ?y ?orient ?variant ?sites () =
  ignore
    (delta_cost t [ Cell_move { ci; x; y; orient; variant; sites } ] : float);
  commit t

(* ------------------------------------------------------------------ *)
(* Cost snapshots                                                      *)

type cost_snapshot = {
  g_c1 : float;
  g_c2 : float;
  g_c3 : float;
  g_c4 : float;
  g_teil : float;
}

let snapshot_cost t =
  { g_c1 = t.cost.c1; g_c2 = t.cost.c2; g_c3 = t.cost.c3; g_c4 = t.cost.c4; g_teil = t.cost.teil }

let restore_cost t s =
  t.live <- false;
  t.cost.c1 <- s.g_c1;
  t.cost.c2 <- s.g_c2;
  t.cost.c3 <- s.g_c3;
  t.cost.c4 <- s.g_c4;
  t.cost.teil <- s.g_teil

(* ------------------------------------------------------------------ *)
(* Verification                                                        *)

let drift_report t =
  let c1 = t.cost.c1 and c2 = t.cost.c2 and c3 = t.cost.c3 and c4 = t.cost.c4
  and teil = t.cost.teil in
  recompute_all t;
  let close a b =
    Float.abs (a -. b) <= 1e-6 *. Float.max 1.0 (Float.max (Float.abs a) (Float.abs b))
  in
  List.filter_map
    (fun (term, cached, truth) ->
      if close cached truth then None else Some (term, cached, truth))
    [ ("C1", c1, t.cost.c1); ("C2", c2, t.cost.c2); ("C3", c3, t.cost.c3);
      ("C4", c4, t.cost.c4); ("TEIL", teil, t.cost.teil) ]

let verify_consistency t =
  match drift_report t with
  | [] -> ()
  | (term, cached, truth) :: _ ->
      failwith (Printf.sprintf "%s drift: cached %g vs true %g" term cached truth)

let verify_index t =
  let n = Array.length t.cells in
  if Spatial.length t.idx <> n then
    failwith
      (Printf.sprintf "Placement.verify_index: %d entries for %d cells"
         (Spatial.length t.idx) n);
  Array.iteri
    (fun ci cs ->
      if not (Spatial.mem t.idx ci) then
        failwith (Printf.sprintf "Placement.verify_index: cell %d missing" ci);
      if not (Rect.equal (Spatial.rect_of t.idx ci) cs.bbox) then
        failwith
          (Printf.sprintf "Placement.verify_index: cell %d bbox stale" ci))
    t.cells;
  (* Query equivalence against a from-scratch rebuild. *)
  let fresh = make_index t in
  Array.iteri (fun ci cs -> Spatial.insert fresh ci cs.bbox) t.cells;
  Array.iteri
    (fun ci cs ->
      let a = List.sort compare (Spatial.query t.idx cs.bbox)
      and b = List.sort compare (Spatial.query fresh cs.bbox) in
      if a <> b then
        failwith
          (Printf.sprintf "Placement.verify_index: query mismatch at cell %d"
             ci))
    t.cells

let pp_summary ppf t =
  Format.fprintf ppf "C1=%.0f C2=%.0f (p2=%.3g) C3=%.0f TEIL=%.0f cost=%.0f"
    t.cost.c1 t.cost.c2 t.p2v t.cost.c3 t.cost.teil (total_cost t);
  if Array.length t.cons > 0 then Format.fprintf ppf " C4=%.0f" t.cost.c4
