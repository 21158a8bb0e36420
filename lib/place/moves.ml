open Twmc_geometry
open Twmc_netlist
module Rng = Twmc_sa.Rng
module Anneal = Twmc_sa.Anneal

(* Move-class indices for the per-class efficacy counters: every Metropolis
   trial is tagged with the proposal class that produced it, giving
   attempt/accept/Δcost totals per class (the paper's generate-function
   traffic broken down by move type). *)
let cls_displace = 0
let cls_displace_inverted = 1
let cls_orient = 2
let cls_interchange = 3
let cls_interchange_inverted = 4
let cls_pin = 5
let cls_variant = 6
let n_classes = 7

let class_name = function
  | 0 -> "displace"
  | 1 -> "displace_inverted"
  | 2 -> "orient"
  | 3 -> "interchange"
  | 4 -> "interchange_inverted"
  | 5 -> "pin"
  | 6 -> "variant"
  | _ -> invalid_arg "Moves.class_name"

type stats = {
  mutable attempts : int;
  mutable displacements : int;
  mutable aspect_rescues : int;
  mutable orient_changes : int;
  mutable interchanges : int;
  mutable interchange_rescues : int;
  mutable pin_moves : int;
  mutable variant_changes : int;
  class_attempts : int array;
  class_accepts : int array;
  (* A float array, not mutable float fields: unboxed stores keep the
     accumulation allocation-free on the per-move path. *)
  class_dcost : float array;
}

let make_stats () =
  { attempts = 0;
    displacements = 0;
    aspect_rescues = 0;
    orient_changes = 0;
    interchanges = 0;
    interchange_rescues = 0;
    pin_moves = 0;
    variant_changes = 0;
    class_attempts = Array.make n_classes 0;
    class_accepts = Array.make n_classes 0;
    class_dcost = Array.make n_classes 0.0 }

type ctx = {
  p : Placement.t;
  limiter : Range_limiter.t;
  stats : stats;
  (* Stage 2's move set: no orientation, aspect-ratio or interchange
     moves. *)
  refine : bool;
  prob_displacement : float;
  (* Hard constraints on the proposal side: fixed cells admit no geometric
     move, region-locked cells are repaired into (and vetoed outside)
     their rectangle.  [constrained] short-circuits every check away on
     unconstrained netlists. *)
  constrained : bool;
  fixed : bool array;
  region : Rect.t option array;
  (* The per-cell proposal buffer a pin move fills, and the one-move list
     naming that buffer, built once.  Reusing the buffer is safe because
     [Placement.delta_cost] copies it into its pending state. *)
  pin_sites : int array array;
  pin_moves : Placement.move list array;
}

let make_ctx ?(refine = false) ~placement ~limiter ~stats () =
  let r = (Placement.params placement).Params.r_ratio in
  let nl = Placement.netlist placement in
  let n = Netlist.n_cells nl in
  let fixed = Array.make n false and region = Array.make n None in
  Array.iter
    (function
      | Constr.Fixed { cell; _ } -> fixed.(cell) <- true
      | Constr.Region { cell; rect } ->
          region.(cell) <-
            (match region.(cell) with
            | None -> Some rect
            | Some r ->
                let i = Rect.inter r rect in
                if Rect.is_empty i then Some r else Some i)
      | _ -> ())
    nl.Netlist.constraints;
  let constrained =
    Array.exists Fun.id fixed || Array.exists Option.is_some region
  in
  let pin_sites =
    Array.map (fun c -> Array.make (Cell.n_pins c) (-1)) nl.Netlist.cells
  in
  { p = placement;
    limiter;
    stats;
    refine;
    prob_displacement = (if refine then 1.0 else r /. (r +. 1.0));
    constrained;
    fixed;
    region;
    pin_sites;
    pin_moves =
      Array.mapi
        (fun ci sites -> [ Placement.Sites_move { ci; sites } ])
        pin_sites
  }

(* A proposed move that a hard constraint forbids: any geometric change of
   a fixed cell, or a target center outside a region lock. *)
let violates ctx = function
  | Placement.Sites_move _ -> false
  | Placement.Cell_move { ci; x; y; orient; variant; _ } ->
      let geometric =
        x <> None || y <> None || orient <> None || variant <> None
      in
      (geometric && ctx.fixed.(ci))
      ||
      (match ctx.region.(ci) with
      | None -> false
      | Some r ->
          let px, py = Placement.cell_pos ctx.p ci in
          let tx = Option.value x ~default:px
          and ty = Option.value y ~default:py in
          not (Rect.contains_point r (tx, ty)))

(* Metropolis-test [moves] on their simulated cost change and, on
   acceptance, commit the state that simulation built: a trial is costed
   once.  Rejected proposals — the vast majority at low temperature —
   never mutate the placement, its net caches or the spatial index.
   [cls] tags the trial for the per-class efficacy counters (array stores
   only — nothing here allocates).  Returns acceptance. *)
let trial ctx rng ~cls ~temp ~moves =
  let s = ctx.stats in
  s.class_attempts.(cls) <- s.class_attempts.(cls) + 1;
  if ctx.constrained && List.exists (violates ctx) moves then
    (* Constraint veto: the attempt is counted but no cost is evaluated
       and no Metropolis draw is consumed. *)
    false
  else
  let delta = Placement.delta_cost ctx.p moves in
  if Anneal.metropolis rng ~t:temp ~delta then begin
    Placement.commit ctx.p;
    s.class_accepts.(cls) <- s.class_accepts.(cls) + 1;
    s.class_dcost.(cls) <- s.class_dcost.(cls) +. delta;
    true
  end
  else false

let cell_move ?x ?y ?orient ?variant ?sites ci =
  Placement.Cell_move { ci; x; y; orient; variant; sites }

let random_cell ctx rng = Rng.int_incl rng 0 (Netlist.n_cells (Placement.netlist ctx.p) - 1)

let clamp lo hi v = max lo (min hi v)

let target_of_step ctx ci (dx, dy) =
  let core = Placement.core ctx.p in
  let x, y = Placement.cell_pos ctx.p ci in
  let tx = clamp core.Rect.x0 core.Rect.x1 (x + dx)
  and ty = clamp core.Rect.y0 core.Rect.y1 (y + dy) in
  (* Repair, not reject: displacement targets of region-locked cells are
     clamped into the region so the ladder keeps proposing useful moves. *)
  match ctx.region.(ci) with
  | None -> (tx, ty)
  | Some r ->
      ( clamp r.Rect.x0 (r.Rect.x1 - 1) tx,
        clamp r.Rect.y0 (r.Rect.y1 - 1) ty )

(* A_1(i, x, y): displacement at current orientation. *)
let attempt_displacement ctx rng ~temp ~cell ~x ~y =
  trial ctx rng ~cls:cls_displace ~temp ~moves:[ cell_move ~x ~y cell ]

(* A'(i, x, y): displacement with the aspect ratio inverted (Fig 2). *)
let attempt_displacement_inverted ctx rng ~temp ~cell ~x ~y =
  let o = Placement.cell_orient ctx.p cell in
  let o' = Orient.aspect_inversion_of o in
  trial ctx rng ~cls:cls_displace_inverted ~temp
    ~moves:[ cell_move ~x ~y ~orient:o' cell ]

(* For each orientation (by [Orient.to_int]), the other seven in
   [Orient.all] order. *)
let other_orients =
  Array.init 8 (fun i ->
      let o = Orient.of_int i in
      Array.of_list (List.filter (fun o' -> not (Orient.equal o o')) Orient.all))

(* A_0(i): random in-place orientation change. *)
let attempt_orient ctx rng ~temp ~cell =
  let o = Placement.cell_orient ctx.p cell in
  let o' = Rng.pick rng other_orients.(Orient.to_int o) in
  trial ctx rng ~cls:cls_orient ~temp ~moves:[ cell_move ~orient:o' cell ]

(* A_2(i, j): pairwise interchange of cell centers. *)
let attempt_interchange ctx rng ~temp ~i ~j ~invert =
  let xi, yi = Placement.cell_pos ctx.p i
  and xj, yj = Placement.cell_pos ctx.p j in
  let moves =
    if invert then
      let oi = Orient.aspect_inversion_of (Placement.cell_orient ctx.p i)
      and oj = Orient.aspect_inversion_of (Placement.cell_orient ctx.p j) in
      [ cell_move ~x:xj ~y:yj ~orient:oi i; cell_move ~x:xi ~y:yi ~orient:oj j ]
    else [ cell_move ~x:xj ~y:yj i; cell_move ~x:xi ~y:yi j ]
  in
  trial ctx rng
    ~cls:(if invert then cls_interchange_inverted else cls_interchange)
    ~temp ~moves

(* A_p(i): reassign one pin group or lone pin to fresh sites.  Reads the
   cell's tables and fills its proposal buffer: no allocation.  [Rng.pick]
   on a table array draws what [Rng.pick_list] drew on the list it was
   built from, so the RNG stream is the list-based generator's. *)
let attempt_pin_move ctx rng ~temp ~cell =
  let tbl = Placement.site_table ctx.p cell in
  let n_groups = Array.length tbl.Sites.groups in
  let n_choices = n_groups + Array.length tbl.Sites.lone in
  if n_choices = 0 then false
  else begin
    let variant = Placement.cell_variant ctx.p cell in
    let choice = Rng.int_incl rng 0 (n_choices - 1) in
    let sites = ctx.pin_sites.(cell) in
    for pin = 0 to Array.length sites - 1 do
      sites.(pin) <- Placement.site_of_pin ctx.p ~cell ~pin
    done;
    (* The site picks draw from the RNG while building the proposal —
       before the Metropolis draw. *)
    let allowed = tbl.Sites.allowed.(variant) in
    (if choice < n_groups then begin
       let members = tbl.Sites.groups.(choice) in
       let anchors = allowed.(members.(0)) in
       if Array.length anchors > 0 then
         Sites.assign_group tbl ~variant ~members
           ~anchor_site:(Rng.pick rng anchors) ~sites
     end
     else
       let pin = tbl.Sites.lone.(choice - n_groups) in
       if Array.length allowed.(pin) > 0 then
         sites.(pin) <- Rng.pick rng allowed.(pin));
    let accepted =
      trial ctx rng ~cls:cls_pin ~temp ~moves:ctx.pin_moves.(cell)
    in
    if accepted then ctx.stats.pin_moves <- ctx.stats.pin_moves + 1;
    accepted
  end

(* A_r(i): aspect-ratio / instance change to an adjacent variant. *)
let attempt_variant ctx rng ~temp ~cell =
  let nl = Placement.netlist ctx.p in
  let c = nl.Netlist.cells.(cell) in
  let nv = Cell.n_variants c in
  if nv < 2 then false
  else begin
    let v = Placement.cell_variant ctx.p cell in
    let v' =
      if v = 0 then 1
      else if v = nv - 1 then nv - 2
      else if Rng.bool_with_prob rng 0.5 then v - 1
      else v + 1
    in
    let accepted =
      trial ctx rng ~cls:cls_variant ~temp ~moves:[ cell_move ~variant:v' cell ]
    in
    if accepted then ctx.stats.variant_changes <- ctx.stats.variant_changes + 1;
    accepted
  end

let is_custom ctx ci =
  let nl = Placement.netlist ctx.p in
  match nl.Netlist.cells.(ci).Cell.kind with
  | Cell.Custom -> true
  | Cell.Macro -> false

let generate ctx rng ~temp =
  ctx.stats.attempts <- ctx.stats.attempts + 1;
  let prm = Placement.params ctx.p in
  if Rng.bool_with_prob rng ctx.prob_displacement then begin
    (* Single-cell displacement ladder. *)
    let i = random_cell ctx rng in
    let step =
      Range_limiter.select prm.Params.displacement_selector rng ctx.limiter
        ~temp
    in
    let x, y = target_of_step ctx i step in
    if attempt_displacement ctx rng ~temp ~cell:i ~x ~y then
      ctx.stats.displacements <- ctx.stats.displacements + 1
    else if
      (not ctx.refine)
      && attempt_displacement_inverted ctx rng ~temp ~cell:i ~x ~y
    then ctx.stats.aspect_rescues <- ctx.stats.aspect_rescues + 1
    else if (not ctx.refine) && attempt_orient ctx rng ~temp ~cell:i then
      ctx.stats.orient_changes <- ctx.stats.orient_changes + 1;
    if is_custom ctx i then begin
      for _ = 1 to (Placement.site_table ctx.p i).Sites.n_uncommitted do
        ignore (attempt_pin_move ctx rng ~temp ~cell:i)
      done;
      if not ctx.refine then ignore (attempt_variant ctx rng ~temp ~cell:i)
    end
  end
  else begin
    (* Pairwise interchange (not range-limited in TimberWolfMC). *)
    let i = random_cell ctx rng in
    let j = random_cell ctx rng in
    if i <> j then
      if attempt_interchange ctx rng ~temp ~i ~j ~invert:false then
        ctx.stats.interchanges <- ctx.stats.interchanges + 1
      else if
        (not ctx.refine)
        && attempt_interchange ctx rng ~temp ~i ~j ~invert:true
      then begin
        ctx.stats.interchanges <- ctx.stats.interchanges + 1;
        ctx.stats.interchange_rescues <- ctx.stats.interchange_rescues + 1
      end
  end
