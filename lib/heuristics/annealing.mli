(** Simulated annealing over specialized mappings (extension beyond the
    paper).

    The state space is the set of valid specialized mappings; moves are
    random task reassignments and group swaps (the {!Local_search}
    neighbourhoods, sampled instead of enumerated).  The acceptance rule is
    Metropolis with a geometric cooling schedule: the temperature starts
    at half the initial period and is multiplied by 0.995 after each of
    3000 proposals.  The best state ever visited is returned, so the
    result never degrades the initial mapping. *)

(** [run rng inst mp] anneals from the given specialized mapping.
    Proposals are scored incrementally through {!Mf_eval.State}; accepted
    ones are committed with [apply_move]/[apply_swap].
    @raise Invalid_argument if [mp] is not specialized for [inst]. *)
val run : Mf_prng.Rng.t -> Mf_core.Instance.t -> Mf_core.Mapping.t -> Mf_core.Mapping.t

(** [run_reference] is the original implementation scoring every proposal
    by a from-scratch [Period.period].  It consumes the RNG draw for draw
    like {!run} and, up to floating-point noise, follows the same
    trajectory; kept for differential testing and benchmarking. *)
val run_reference :
  Mf_prng.Rng.t -> Mf_core.Instance.t -> Mf_core.Mapping.t -> Mf_core.Mapping.t
