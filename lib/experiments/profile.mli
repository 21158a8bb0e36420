(** Experiment profiles.

    The paper burned up to 4 CPU-hours per run on a VAX 8650; the [quick]
    profile reproduces every experiment's shape in minutes on a laptop by
    scaling the knobs the paper itself identifies as quality/time trades
    (A_c — Figs 5–6 — trials, and the router's M).  [full] restores the
    published values.  EXPERIMENTS.md records which profile produced the
    recorded numbers. *)

type t = {
  name : string;
  a_c : int;
  m_routes : int;
  max_trials : int;  (** Cap on per-circuit trials (Table 3 ran 2–6). *)
  seeds : int list;  (** Seeds used where the experiment averages runs. *)
  circuits : string list;  (** Circuits included. *)
}

val quick : t
val full : t
val of_name : string -> t option

val params : t -> Twmc_place.Params.t
(** Default parameters with the profile's A_c and M. *)

val flow :
  params:Twmc_place.Params.t ->
  seed:int ->
  Twmc_netlist.Netlist.t ->
  Twmc.Flow.result
(** {!Twmc.Flow.run_resilient}'s result; raises [Failure] naming the status
    when the flow produced none. *)
