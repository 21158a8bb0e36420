open Twmc_netlist

let edge_ranges (v : Cell.variant) =
  let n_edges = List.length v.Cell.edges in
  let starts = Array.make n_edges max_int and lens = Array.make n_edges 0 in
  Array.iteri
    (fun i (s : Pin_site.t) ->
      let e = s.Pin_site.edge in
      if i < starts.(e) then starts.(e) <- i;
      lens.(e) <- lens.(e) + 1)
    v.Cell.sites;
  Array.init n_edges (fun e ->
      ((if lens.(e) = 0 then 0 else starts.(e)), lens.(e)))

let group_members (c : Cell.t) =
  let tbl = Hashtbl.create 4 in
  Array.iteri
    (fun i (p : Pin.t) ->
      match (p.Pin.loc, p.Pin.group) with
      | Pin.Uncommitted _, Some g ->
          Hashtbl.replace tbl g
            ((i, p.Pin.seq) :: (try Hashtbl.find tbl g with Not_found -> []))
      | _ -> ())
    c.Cell.pins;
  Hashtbl.fold
    (fun g members acc ->
      let members =
        List.stable_sort
          (fun (i1, s1) (i2, s2) ->
            match (s1, s2) with
            | Some a, Some b -> Stdlib.compare a b
            | Some _, None -> -1
            | None, Some _ -> 1
            | None, None -> Stdlib.compare i1 i2)
          (List.rev members)
      in
      (g, List.map fst members) :: acc)
    tbl []
  |> List.sort (fun (a, _) (b, _) -> Stdlib.compare a b)

let lone_uncommitted (c : Cell.t) =
  Array.to_list
    (Array.mapi
       (fun i (p : Pin.t) ->
         match (p.Pin.loc, p.Pin.group) with
         | Pin.Uncommitted _, None -> Some i
         | _ -> None)
       c.Cell.pins)
  |> List.filter_map Fun.id

type table = {
  cell : Cell.t;
  groups : int array array;
  lone : int array;
  n_uncommitted : int;
  allowed : int array array array;
  ranges : (int * int) array array;
}

let table (c : Cell.t) =
  { cell = c;
    groups =
      Array.of_list
        (List.map
           (fun (_, members) -> Array.of_list members)
           (group_members c));
    lone = Array.of_list (lone_uncommitted c);
    n_uncommitted =
      Array.fold_left
        (fun acc p -> if Pin.is_committed p then acc else acc + 1)
        0 c.Cell.pins;
    allowed =
      Array.init (Cell.n_variants c) (fun variant ->
          Array.init (Cell.n_pins c) (fun pin ->
              Array.of_list (Cell.allowed_sites c ~variant pin)));
    ranges = Array.map edge_ranges c.Cell.variants }

let assign_group tbl ~variant ~members ~anchor_site ~sites =
  let site = (Cell.variant tbl.cell variant).Cell.sites.(anchor_site) in
  let edge = site.Pin_site.edge in
  let start, len = tbl.ranges.(variant).(edge) in
  if len = 0 then invalid_arg "Sites.assign_group: anchor edge has no sites";
  let off = anchor_site - start in
  for k = 0 to Array.length members - 1 do
    sites.(members.(k)) <- start + ((off + k) mod len)
  done

let random_assignment rng tbl ~variant =
  let sites = Array.make (Cell.n_pins tbl.cell) (-1) in
  let pick_allowed pin =
    match tbl.allowed.(variant).(pin) with
    | [||] ->
        invalid_arg
          (Printf.sprintf "Sites.random_assignment: pin %d of %s has no site"
             pin tbl.cell.Cell.name)
    | a -> Twmc_sa.Rng.pick rng a
  in
  Array.iter (fun p -> sites.(p) <- pick_allowed p) tbl.lone;
  Array.iter
    (fun members ->
      let anchor = pick_allowed members.(0) in
      assign_group tbl ~variant ~members ~anchor_site:anchor ~sites)
    tbl.groups;
  sites
