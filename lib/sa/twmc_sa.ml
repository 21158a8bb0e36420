(** Simulated-annealing substrate: deterministic RNG, the TimberWolfMC
    cooling schedules and Metropolis acceptance. *)

module Rng = Rng
module Schedule = Schedule
module Anneal = Anneal
