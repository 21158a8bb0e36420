(* Test-only reference for [Twmc_route.Mshortest]: the Set-queue Dijkstra,
   the separate all-distances sweep and Yen's deviation algorithm with
   Hashtbl bans that the array kernel replaced.  The differential tests in
   test_route.ml require the kernel to return exactly what this returns. *)

module G = Twmc_channel.Graph

type path = Twmc_route.Mshortest.path = {
  nodes : int list;
  edges : int list;
  length : int;
}

(* The search runs on an augmented digraph: a virtual source [n] fanning out
   to all sources and a virtual target [n+1] fed by all targets, both with
   zero-length hops, so multi-set queries reduce to single-pair queries. *)
type aug = {
  g : G.t;
  n : int;
  vsrc : int;
  vtgt : int;
  sources : int list;
  target_set : (int, unit) Hashtbl.t;
}

let make_aug g ~sources ~targets =
  let n = G.n_nodes g in
  let target_set = Hashtbl.create 8 in
  List.iter (fun t -> Hashtbl.replace target_set t ()) targets;
  { g; n; vsrc = n; vtgt = n + 1; sources; target_set }

(* Successors as (next node, hop length). *)
let succ aug v =
  if v = aug.vsrc then List.map (fun s -> (s, 0)) aug.sources
  else if v = aug.vtgt then []
  else
    let real =
      List.map
        (fun (eid, o) -> (o, aug.g.G.edges.(eid).G.length))
        (G.neighbours aug.g v)
    in
    if Hashtbl.mem aug.target_set v then (aug.vtgt, 0) :: real else real

module Pq = Set.Make (struct
  type t = int * int  (* (distance, node) *)

  let compare = Stdlib.compare
end)

let norm_pair u v = if u <= v then (u, v) else (v, u)

(* Dijkstra from [start] to [vtgt] on the augmented graph, avoiding banned
   directed pairs and banned nodes; returns the node sequence and length. *)
let dijkstra aug ~start ~banned_pairs ~banned_nodes =
  let size = aug.n + 2 in
  let dist = Array.make size max_int in
  let prev = Array.make size (-1) in
  dist.(start) <- 0;
  let q = ref (Pq.singleton (0, start)) in
  let finished = ref false in
  while (not !finished) && not (Pq.is_empty !q) do
    let (d, v) as min = Pq.min_elt !q in
    q := Pq.remove min !q;
    if v = aug.vtgt then finished := true
    else if d <= dist.(v) then
      List.iter
        (fun (o, len) ->
          if
            (not (Hashtbl.mem banned_nodes o))
            && not (Hashtbl.mem banned_pairs (norm_pair v o))
          then
            let nd = d + len in
            if nd < dist.(o) then begin
              dist.(o) <- nd;
              prev.(o) <- v;
              q := Pq.add (nd, o) !q
            end)
        (succ aug v)
  done;
  if dist.(aug.vtgt) = max_int then None
  else begin
    let rec walk v acc = if v = -1 then acc else walk prev.(v) (v :: acc) in
    Some (walk aug.vtgt [], dist.(aug.vtgt))
  end

let hop_length aug u v =
  if u = aug.vsrc || v = aug.vsrc || u = aug.vtgt || v = aug.vtgt then 0
  else
    match G.edge_between aug.g u v with
    | Some e -> e.G.length
    | None -> invalid_arg "Mshortest: nodes not adjacent"

let to_path aug nodes length =
  let real = List.filter (fun v -> v < aug.n) nodes in
  let rec edges = function
    | u :: (v :: _ as rest) ->
        (match G.edge_between aug.g u v with
        | Some e -> e.G.id :: edges rest
        | None -> edges rest)
    | _ -> []
  in
  { nodes = real; edges = edges real; length }

let distances g ~sources =
  let n = G.n_nodes g in
  let dist = Array.make n max_int in
  let q = ref Pq.empty in
  List.iter
    (fun s ->
      if dist.(s) <> 0 then begin
        dist.(s) <- 0;
        q := Pq.add (0, s) !q
      end)
    sources;
  while not (Pq.is_empty !q) do
    let (d, v) as min = Pq.min_elt !q in
    q := Pq.remove min !q;
    if d <= dist.(v) then
      List.iter
        (fun (eid, o) ->
          let nd = d + g.G.edges.(eid).G.length in
          if nd < dist.(o) then begin
            dist.(o) <- nd;
            q := Pq.add (nd, o) !q
          end)
        (G.neighbours g v)
  done;
  dist

let shortest g ~sources ~targets =
  if sources = [] || targets = [] then None
  else
    let aug = make_aug g ~sources ~targets in
    match
      dijkstra aug ~start:aug.vsrc ~banned_pairs:(Hashtbl.create 1)
        ~banned_nodes:(Hashtbl.create 1)
    with
    | None -> None
    | Some (nodes, length) -> Some (to_path aug nodes length)

let k_shortest g ~k ~sources ~targets =
  if k <= 0 || sources = [] || targets = [] then []
  else begin
    let aug = make_aug g ~sources ~targets in
    let empty_tbl () = Hashtbl.create 8 in
    let first =
      dijkstra aug ~start:aug.vsrc ~banned_pairs:(empty_tbl ())
        ~banned_nodes:(empty_tbl ())
    in
    match first with
    | None -> []
    | Some first ->
        (* Yen's deviation algorithm over node sequences. *)
        let a = ref [ first ] in
        let b = ref [] in  (* candidates, (nodes, length) *)
        let seen = Hashtbl.create 16 in
        Hashtbl.replace seen (fst first) ();
        let add_candidate c =
          if not (Hashtbl.mem seen (fst c)) then begin
            Hashtbl.replace seen (fst c) ();
            b := c :: !b
          end
        in
        let continue = ref true in
        while List.length !a < k && !continue do
          let prev_nodes, _ = List.hd !a in
          let prev_arr = Array.of_list prev_nodes in
          for i = 0 to Array.length prev_arr - 2 do
            let root = Array.sub prev_arr 0 (i + 1) in
            let banned_pairs = empty_tbl () in
            (* Ban the next hop of every accepted path sharing this root. *)
            List.iter
              (fun (pn, _) ->
                let pa = Array.of_list pn in
                if
                  Array.length pa > i + 1
                  && Array.sub pa 0 (i + 1) = root
                then
                  Hashtbl.replace banned_pairs (norm_pair pa.(i) pa.(i + 1)) ())
              !a;
            let banned_nodes = empty_tbl () in
            Array.iteri
              (fun j v -> if j < i then Hashtbl.replace banned_nodes v ())
              root;
            match
              dijkstra aug ~start:prev_arr.(i) ~banned_pairs ~banned_nodes
            with
            | None -> ()
            | Some (spur_nodes, spur_len) ->
                let root_len = ref 0 in
                for j = 0 to i - 1 do
                  root_len := !root_len + hop_length aug prev_arr.(j) prev_arr.(j + 1)
                done;
                let full =
                  Array.to_list (Array.sub prev_arr 0 i) @ spur_nodes
                in
                add_candidate (full, !root_len + spur_len)
          done;
          match List.sort (fun (_, l1) (_, l2) -> Stdlib.compare l1 l2) !b with
          | [] -> continue := false
          | best :: rest ->
              a := best :: !a;
              b := rest
        done;
        List.rev_map (fun (nodes, len) -> to_path aug nodes len) !a
        |> List.sort (fun p1 p2 -> Stdlib.compare p1.length p2.length)
  end
