(** M-shortest loopless paths between node sets on the channel graph.

    The paper uses Lawler's M-shortest-path procedure for two-pin nets
    (Sec 4.2.1); this implements the equivalent deviation algorithm (Yen's),
    generalized to source {e sets} and target {e sets} via zero-length
    virtual terminals — which is also what makes electrically-equivalent
    pins free to the router.

    Every search runs one array-based Dijkstra on scratch state owned by
    the calling domain and reused across calls: the functions below are
    safe to call from several domains at once, and a search itself
    allocates nothing. *)

type path = {
  nodes : int list;  (** Visited graph nodes, source end first. *)
  edges : int list;  (** Real edge ids along the path. *)
  length : int;
}

val distances : Twmc_channel.Graph.t -> sources:int list -> int array
(** Single multi-source Dijkstra sweep: shortest distance from the source
    set to every node ([max_int] where unreachable).  Used to build Prim
    orders without a quadratic number of point queries. *)

val shortest :
  Twmc_channel.Graph.t ->
  sources:int list ->
  targets:int list ->
  path option
(** Multi-source multi-target Dijkstra.  [None] when disconnected.
    A source that is also a target yields the empty path of length 0. *)

val k_shortest :
  Twmc_channel.Graph.t ->
  k:int ->
  sources:int list ->
  targets:int list ->
  path list
(** At most [k] distinct loopless paths in nondecreasing length order. *)

val k_shortest_batch :
  ?pool:Twmc_util.Domain_pool.t ->
  Twmc_channel.Graph.t ->
  k:int ->
  (int list * int list) array ->
  path list array
(** [k_shortest_batch ?pool g ~k queries] answers every [(sources,
    targets)] query, in query order.  The graph is only read, so queries
    run concurrently on [pool] when given; the output is identical with or
    without a pool. *)
