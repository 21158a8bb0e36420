module G = Twmc_channel.Graph

type path = { nodes : int list; edges : int list; length : int }

(* The search runs on an augmented digraph: a virtual source [n] fanning out
   to all sources and a virtual target [n+1] fed by all targets, both with
   zero-length hops, so multi-set queries reduce to single-pair queries.
   The kernel handles both virtual nodes inline.

   All search state lives in a per-domain workspace that only ever grows,
   so a search allocates nothing.  Node sets are generation stamps: a node
   is in the set iff its slot equals the set's generation, and a fresh
   generation empties every set at once. *)
type ws = {
  mutable dist : int array;
  mutable prev : int array;  (* Previous node on the best path found. *)
  mutable via : int array;  (* Edge id of that hop; -1 for a virtual hop. *)
  mutable target : int array;  (* Targets of the current query. *)
  mutable banned : int array;  (* Nodes a spur search may not enter. *)
  mutable no_hop : int array;  (* Next hops banned from the spur node. *)
  mutable gen : int;
  (* Binary min-heap on (dist, node), lexicographic. *)
  mutable heap_d : int array;
  mutable heap_v : int array;
  mutable heap_n : int;
}

let key =
  Domain.DLS.new_key (fun () ->
      { dist = [||]; prev = [||]; via = [||]; target = [||]; banned = [||];
        no_hop = [||]; gen = 0; heap_d = Array.make 64 0;
        heap_v = Array.make 64 0; heap_n = 0 })

(* This domain's workspace, sized for [g]'s augmented graph. *)
let workspace g =
  let ws = Domain.DLS.get key in
  let size = G.n_nodes g + 2 in
  if Array.length ws.dist < size then begin
    ws.dist <- Array.make size max_int;
    ws.prev <- Array.make size (-1);
    ws.via <- Array.make size (-1);
    ws.target <- Array.make size 0;
    ws.banned <- Array.make size 0;
    ws.no_hop <- Array.make size 0
  end;
  ws

let fresh ws =
  ws.gen <- ws.gen + 1;
  ws.gen

let push ws d v =
  if ws.heap_n = Array.length ws.heap_d then begin
    let grow a = Array.append a (Array.make (Array.length a) 0) in
    ws.heap_d <- grow ws.heap_d;
    ws.heap_v <- grow ws.heap_v
  end;
  let hd = ws.heap_d and hv = ws.heap_v in
  let i = ref ws.heap_n in
  ws.heap_n <- ws.heap_n + 1;
  let rising = ref true in
  while !rising && !i > 0 do
    let p = (!i - 1) / 2 in
    if d < hd.(p) || (d = hd.(p) && v < hv.(p)) then begin
      hd.(!i) <- hd.(p);
      hv.(!i) <- hv.(p);
      i := p
    end
    else rising := false
  done;
  hd.(!i) <- d;
  hv.(!i) <- v

(* Drop the minimum; the caller has read it from slot 0. *)
let pop ws =
  let hd = ws.heap_d and hv = ws.heap_v in
  let n = ws.heap_n - 1 in
  ws.heap_n <- n;
  let d = hd.(n) and v = hv.(n) in
  let i = ref 0 in
  let sinking = ref true in
  while !sinking do
    let l = (2 * !i) + 1 in
    if l >= n then sinking := false
    else begin
      let c =
        let r = l + 1 in
        if r < n && (hd.(r) < hd.(l) || (hd.(r) = hd.(l) && hv.(r) < hv.(l)))
        then r
        else l
      in
      if hd.(c) < d || (hd.(c) = d && hv.(c) < v) then begin
        hd.(!i) <- hd.(c);
        hv.(!i) <- hv.(c);
        i := c
      end
      else sinking := false
    end
  done;
  if n > 0 then begin
    hd.(!i) <- d;
    hv.(!i) <- v
  end

(* Relax the hop [v -> o] over edge [e] (-1 if virtual) to distance [nd],
   unless [o] is banned or the hop leaves [start] to a banned next hop. *)
let relax ws ~start ~sgen v o e nd =
  if
    ws.banned.(o) <> sgen
    && (v <> start || ws.no_hop.(o) <> sgen)
    && nd < ws.dist.(o)
  then begin
    ws.dist.(o) <- nd;
    ws.prev.(o) <- v;
    ws.via.(o) <- e;
    push ws nd o
  end

let rec relax_sources ws ~start ~sgen vsrc d = function
  | [] -> ()
  | s :: rest ->
      relax ws ~start ~sgen vsrc s (-1) d;
      relax_sources ws ~start ~sgen vsrc d rest

(* The one Dijkstra: from [start] on the augmented graph, with the query's
   targets stamped [tgen] and the spur bans stamped [sgen]; stops when the
   virtual target pops.  Entries pop in (dist, node) order, which is total
   because a node is pushed only on strict improvement; a real node relaxes
   the virtual target first, then its neighbours in [G.neighbours] order.
   True iff the virtual target was reached. *)
let search ws (g : G.t) ~sources ~start ~tgen ~sgen =
  let n = G.n_nodes g in
  let vsrc = n and vtgt = n + 1 in
  Array.fill ws.dist 0 (n + 2) max_int;
  ws.heap_n <- 0;
  ws.dist.(start) <- 0;
  push ws 0 start;
  let finished = ref false in
  while (not !finished) && ws.heap_n > 0 do
    let d = ws.heap_d.(0) and v = ws.heap_v.(0) in
    pop ws;
    if v = vtgt then finished := true
    else if d <= ws.dist.(v) then
      if v = vsrc then relax_sources ws ~start ~sgen vsrc d sources
      else begin
        if ws.target.(v) = tgen then relax ws ~start ~sgen v vtgt (-1) d;
        for j = g.G.adj_off.(v) to g.G.adj_off.(v + 1) - 1 do
          relax ws ~start ~sgen v g.G.adj_node.(j) g.G.adj_edge.(j)
            (d + g.G.adj_len.(j))
        done
      end
  done;
  ws.dist.(vtgt) < max_int

let distances g ~sources =
  let ws = workspace g in
  let n = G.n_nodes g in
  let gen = fresh ws in
  ignore (search ws g ~sources ~start:n ~tgen:gen ~sgen:gen);
  Array.sub ws.dist 0 n

(* A path on the augmented graph, virtual source to virtual target;
   [hops.(j)] is the edge id from [anodes.(j)] to [anodes.(j+1)], -1 for a
   virtual hop. *)
type apath = { anodes : int array; hops : int array; alen : int }

(* Yen's spur: keep [base]'s first [i] nodes (of length [root_len]) and
   search on from [base.anodes.(i)]. *)
let spur ws g ~sources ~tgen ~sgen base i root_len =
  let start = base.anodes.(i) in
  if not (search ws g ~sources ~start ~tgen ~sgen) then None
  else begin
    let vtgt = G.n_nodes g + 1 in
    let len = ref (i + 1) and v = ref vtgt in
    while !v <> start do
      v := ws.prev.(!v);
      incr len
    done;
    let len = !len in
    let anodes = Array.make len 0 and hops = Array.make (len - 1) (-1) in
    Array.blit base.anodes 0 anodes 0 i;
    Array.blit base.hops 0 hops 0 i;
    let v = ref vtgt in
    for p = len - 1 downto i do
      anodes.(p) <- !v;
      if p > i then hops.(p - 1) <- ws.via.(!v);
      v := ws.prev.(!v)
    done;
    Some { anodes; hops; alen = root_len + ws.dist.(vtgt) }
  end

let rec same_prefix a b j len =
  j >= len || (a.(j) = b.(j) && same_prefix a b (j + 1) len)

(* Ban the next hop of every accepted path sharing [base]'s first [i+1]
   nodes.  All those hops leave the spur node [base.anodes.(i)], so a
   per-node stamp stands for the banned (spur, next) pair. *)
let rec ban_next_hops ws ~sgen base i = function
  | [] -> ()
  | p :: rest ->
      if Array.length p.anodes > i + 1 && same_prefix p.anodes base.anodes 0 (i + 1)
      then ws.no_hop.(p.anodes.(i + 1)) <- sgen;
      ban_next_hops ws ~sgen base i rest

let to_path g p =
  let n = G.n_nodes g in
  { nodes = List.filter (fun v -> v < n) (Array.to_list p.anodes);
    edges = List.filter (fun e -> e >= 0) (Array.to_list p.hops);
    length = p.alen }

let k_shortest g ~k ~sources ~targets =
  if k <= 0 || sources = [] || targets = [] then []
  else begin
    let ws = workspace g in
    let tgen = fresh ws in
    List.iter (fun t -> ws.target.(t) <- tgen) targets;
    let origin = { anodes = [| G.n_nodes g |]; hops = [||]; alen = 0 } in
    match spur ws g ~sources ~tgen ~sgen:(fresh ws) origin 0 0 with
    | None -> []
    | Some first ->
        (* Yen's deviation algorithm over node sequences.  New candidates
           are prepended and the stable sort keeps that order among equal
           lengths. *)
        let a = ref [ first ] and accepted = ref 1 in
        let b = ref [] in
        let seen = Hashtbl.create 16 in
        Hashtbl.replace seen first.anodes ();
        let continue = ref true in
        while !accepted < k && !continue do
          let base = List.hd !a in
          let root_len = ref 0 in
          for i = 0 to Array.length base.anodes - 2 do
            if i > 0 && base.hops.(i - 1) >= 0 then
              root_len := !root_len + g.G.edges.(base.hops.(i - 1)).G.length;
            let sgen = fresh ws in
            for j = 0 to i - 1 do
              ws.banned.(base.anodes.(j)) <- sgen
            done;
            ban_next_hops ws ~sgen base i !a;
            match spur ws g ~sources ~tgen ~sgen base i !root_len with
            | Some c when not (Hashtbl.mem seen c.anodes) ->
                Hashtbl.replace seen c.anodes ();
                b := c :: !b
            | Some _ | None -> ()
          done;
          match List.stable_sort (fun c1 c2 -> Int.compare c1.alen c2.alen) !b with
          | [] -> continue := false
          | best :: rest ->
              a := best :: !a;
              b := rest;
              incr accepted
        done;
        List.rev_map (to_path g) !a
        |> List.stable_sort (fun p1 p2 -> Int.compare p1.length p2.length)
  end

let shortest g ~sources ~targets =
  match k_shortest g ~k:1 ~sources ~targets with
  | p :: _ -> Some p
  | [] -> None

(* Batched queries over one shared (read-only) graph: each search touches
   only its own domain's workspace, so queries parallelize with no
   coordination and the result array keeps query order — the merge is just
   the identity on indices. *)
let k_shortest_batch ?pool g ~k queries =
  let solve _i (sources, targets) = k_shortest g ~k ~sources ~targets in
  match pool with
  | Some pool -> Twmc_util.Domain_pool.parallel_map pool ~f:solve queries
  | None -> Array.mapi solve queries
