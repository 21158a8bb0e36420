(** Metropolis acceptance, the annealer's acceptance function (Sec 2.1).
    The loop around it — inner-loop length, temperature update and
    stopping rule — is {!Twmc_place.Anneal_loop}. *)

val metropolis : Rng.t -> t:float -> delta:float -> bool
(** Standard acceptance: always for [delta <= 0], else with probability
    [exp (-delta /. t)].  [t <= 0] accepts only improving moves. *)
