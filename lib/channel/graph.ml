open Twmc_geometry

type edge = { id : int; a : int; b : int; length : int; capacity : int }

type t = {
  regions : Region.t array;
  edges : edge array;
  adj : (int * int) list array;
  adj_off : int array;
  adj_node : int array;
  adj_edge : int array;
  adj_len : int array;
}

let manhattan (x1, y1) (x2, y2) = abs (x1 - x2) + abs (y1 - y2)

let build ~track_spacing regions =
  if track_spacing <= 0 then invalid_arg "Graph.build: track_spacing";
  let regions = Array.of_list regions in
  let n = Array.length regions in
  let edges = ref [] in
  let next = ref 0 in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if Rect.touches regions.(i).Region.rect regions.(j).Region.rect then begin
        let cap =
          max 1
            (min (Region.thickness regions.(i)) (Region.thickness regions.(j))
            / track_spacing)
        in
        (* Centers can coincide for overlapping regions; traversing is then
           free but still capacity-limited. *)
        let length =
          manhattan (Region.center regions.(i)) (Region.center regions.(j))
        in
        edges := { id = !next; a = i; b = j; length; capacity = cap } :: !edges;
        incr next
      end
    done
  done;
  let edges = Array.of_list (List.rev !edges) in
  let adj = Array.make n [] in
  Array.iter
    (fun e ->
      adj.(e.a) <- (e.id, e.b) :: adj.(e.a);
      adj.(e.b) <- (e.id, e.a) :: adj.(e.b))
    edges;
  (* The same adjacency flattened (CSR), in [neighbours] order. *)
  let adj_off = Array.make (n + 1) 0 in
  Array.iteri (fun v l -> adj_off.(v + 1) <- adj_off.(v) + List.length l) adj;
  let adj_node = Array.make adj_off.(n) 0 in
  let adj_edge = Array.make adj_off.(n) 0 in
  Array.iteri
    (fun v l ->
      List.iteri
        (fun j (eid, o) ->
          adj_node.(adj_off.(v) + j) <- o;
          adj_edge.(adj_off.(v) + j) <- eid)
        l)
    adj;
  let adj_len = Array.map (fun eid -> edges.(eid).length) adj_edge in
  { regions; edges; adj; adj_off; adj_node; adj_edge; adj_len }

let n_nodes t = Array.length t.regions
let n_edges t = Array.length t.edges
let neighbours t n = t.adj.(n)

let edge_between t i j =
  List.find_opt (fun (_, o) -> o = j) t.adj.(i)
  |> Option.map (fun (eid, _) -> t.edges.(eid))

let nearest_node t p =
  if Array.length t.regions = 0 then invalid_arg "Graph.nearest_node: empty";
  let best = ref 0 and bestd = ref max_int in
  Array.iteri
    (fun i r ->
      let d = manhattan (Region.center r) p in
      if d < !bestd then begin
        bestd := d;
        best := i
      end)
    t.regions;
  !best

let connected_components t =
  let n = n_nodes t in
  let seen = Array.make n false in
  let comps = ref [] in
  for s = 0 to n - 1 do
    if not seen.(s) then begin
      let comp = ref [] in
      let stack = ref [ s ] in
      seen.(s) <- true;
      while !stack <> [] do
        match !stack with
        | [] -> ()
        | v :: rest ->
            stack := rest;
            comp := v :: !comp;
            List.iter
              (fun (_, o) ->
                if not seen.(o) then begin
                  seen.(o) <- true;
                  stack := o :: !stack
                end)
              t.adj.(v)
      done;
      comps := List.rev !comp :: !comps
    end
  done;
  List.rev !comps

let pp_stats ppf t =
  Format.fprintf ppf "channel graph: %d regions, %d edges, %d components"
    (n_nodes t) (n_edges t)
    (List.length (connected_components t))
