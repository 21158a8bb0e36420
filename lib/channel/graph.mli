(** The channel graph (Sec 4.1, Fig 9).

    Nodes are critical regions; an edge connects every pair of regions whose
    rectangles touch (share boundary or overlap — overlapping regions are
    legal here, unlike in Chen's method).  Each graph edge carries:

    - [length]: the Manhattan distance between the region centers, the
      routing-length contribution of traversing it;
    - [capacity]: how many net segments may cross, limited by the thinner of
      the two regions: [min thickness / track_spacing] (at least 1).

    This is the only structure the global router sees — it is independent of
    the layout style (Sec 4.2). *)

type edge = {
  id : int;
  a : int;  (** Node (region) index. *)
  b : int;
  length : int;
  capacity : int;
}

type t = {
  regions : Region.t array;
  edges : edge array;
  adj : (int * int) list array;
      (** Per node: [(edge id, neighbour node)] pairs. *)
  adj_off : int array;
      (** [adj] flattened for allocation-free traversal: node [v]'s
          neighbours are at slots [adj_off.(v)] to [adj_off.(v+1) - 1] of
          the three arrays below, in [adj] order. *)
  adj_node : int array;  (** Neighbour node per slot. *)
  adj_edge : int array;  (** Edge id per slot. *)
  adj_len : int array;  (** That edge's [length] per slot. *)
}

val build : track_spacing:int -> Region.t list -> t

val n_nodes : t -> int
val n_edges : t -> int
val neighbours : t -> int -> (int * int) list
val edge_between : t -> int -> int -> edge option

val nearest_node : t -> int * int -> int
(** Node whose region center is Manhattan-closest to the point; requires a
    nonempty graph. *)

val connected_components : t -> int list list
val pp_stats : Format.formatter -> t -> unit
