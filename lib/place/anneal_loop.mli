(** The annealing loop of TimberWolfMC, shared by stage 1 (Sec 3) and the
    stage-2 placement refinement (Sec 4.3).

    Sec 2.1 characterizes the annealer by (1) the [generate] function
    ({!Moves.generate}), (2) Metropolis acceptance, (3) the temperature
    update ({!Twmc_sa.Schedule.next}), (4) the inner-loop length
    [A = a_c · N_c] (Eqn 17) and (5) the stopping rule.  This module owns
    (4), (5) and the loop around them; the two stages differ only in their
    set-up (core, schedule, start temperature, expander) and in the
    {!stage} they pass, which selects the move set, the stopping rule and
    the telemetry names.

    After the stopping rule fires, a bounded quench tail runs: both stages
    formally stop on a geometric or frozen-cost criterion, which on small
    cores fires while the temperature is still warm enough to leave
    residual cell overlap.  The paper's layouts end essentially overlap-free
    because their [T → T0 ≈ 0] tail freezes the penalty out; the quench
    reproduces that tail explicitly — inner loops at a temperature falling
    by 0.6 per loop, alternating (after 12 loops) minimum-window moves with
    moves in a constant window of a fifth of the core, so a jammed cell can
    hop over a neighbour when that strictly improves the cost.  It stops as
    soon as the overlap penalty [C2] reaches zero, after 20 loops without
    improving it, or after 150 loops. *)

type temp_record = {
  temperature : float;
  cost : float;
  c1 : float;
  c2_raw : float;
  c3 : float;
  acceptance : float;  (** Accepted top-level moves / attempts, approximate. *)
  window : float * float;
}
(** One inner loop of the cooling schedule, read after the cost caches are
    recomputed (quench loops are not recorded). *)

type stage =
  | Stage1 of { replica : int option }
      (** All move classes; stops at the minimum window span (Sec 3.3).
          Wrapped in a ["stage1.anneal"] span; the ["stage1.temp"] points
          also carry the window and the average effective cell area. *)
  | Refine of { iteration : int option; final : bool }
      (** Displacements and pin moves only (Sec 4.3); stops at the minimum
          window span, or — when [final] — once the cost is unchanged for 3
          consecutive temperatures. *)

type stop =
  | Min_span  (** The range-limiter window reached its minimum span. *)
  | Frozen  (** The final refinement's cost was unchanged for 3 temperatures. *)
  | T_floor  (** The next temperature fell below [t_floor]. *)
  | Interrupted  (** [should_stop] fired before any rule did. *)

type outcome = {
  stats : Moves.stats;
  trace : temp_record list;  (** Oldest first. *)
  temperatures : int;  (** Inner loops run, quench loops included. *)
  stop : stop;
  interrupted : bool;
      (** [should_stop] fired, during the cooling or the quench; the
          placement's caches are consistent either way. *)
}

val expanded_area : Placement.t -> int
(** Total area of every cell's expanded tiles. *)

val avg_effective_cell_area : Placement.t -> float
(** The average cell area including the estimated interconnect area — the
    [c̄_a] that scales the temperature profile (Eqns 19–21). *)

val run :
  ?should_stop:(unit -> bool) ->
  ?obs:Twmc_obs.Ctx.t ->
  rng:Twmc_sa.Rng.t ->
  limiter:Range_limiter.t ->
  schedule:Twmc_sa.Schedule.t ->
  t_start:float ->
  t_floor:float ->
  stage ->
  Placement.t ->
  outcome
(** Anneals the placement in place from [t_start], then runs the quench
    tail, leaving its cost caches fully recomputed.  [should_stop] is
    polled every 128 moves (cooperative timeout); once it fires the current
    inner loop ends at once, the caches are recomputed and the anneal
    returns, skipping or cutting short the quench.

    [obs] (default disabled, zero overhead) emits one ["<stage>.temp"]
    point per temperature (["stage1"] or ["stage2"], tagged with the
    replica or iteration), the per-class ["<stage>.classes"] points and the
    [<stage>.moves.*] / [<stage>.class.*] counters; the flight recorder
    gets a ["<stage>.temp"] note per temperature.  Instrumentation only
    reads state: results are bit-identical with it on or off. *)
