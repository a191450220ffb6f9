(** Local-search improvement of specialized mappings (extension beyond the
    paper).

    Starting from any specialized mapping, two neighbourhoods are explored
    with steepest descent:

    - {b task moves}: reassign one task to another machine that is empty or
      already dedicated to its type;
    - {b group swaps}: exchange the machines of two dedicated groups
      (always type-safe).

    Each round scans every task move (task order, then machine order),
    then every swap, and applies the best candidate; a move wins a tie
    with a swap.  A candidate must beat the round's starting period by
    a relative margin of 1e-12, so churn at ulp scale cannot descend
    forever; the applied candidate's period starts the next round.  The
    search stops at the first round that applies nothing (no round
    cap).  The result never has a larger period than the input, and
    remains specialized.

    Candidates are scored incrementally through {!Mf_eval.State}
    (O(subtree + touched machines) each); see {!improve_reference} for
    the original full-recomputation baseline. *)

(** [descend ~budget ~down st] runs the descent in [st], leaving the
    improved mapping there, and returns the candidates it evaluated.  It
    is the one descent loop: {!improve} and the online re-mapper
    ([Mf_remap.Plan.repair]) both run it.  Task moves go only to up
    machines and swaps exchange two up machines ([down.(u)] marks [u]
    down; a task may still move off a down machine).  The first eligible
    candidate met after [budget] evaluations ends the search, once its
    round applies the best kept so far: the count is [min budget e] for
    the unbounded run's [e] (0 for a negative budget), and
    [budget >= e] gives that run's mapping.  [st] must hold a complete
    mapping and no journalled assignment.
    @raise Invalid_argument when [down] is not one entry per machine. *)
val descend : budget:int -> down:bool array -> Mf_eval.State.t -> int

(** [improve inst mp] is {!descend} unbounded, every machine up, on
    [Mf_eval.State.of_mapping inst mp]. *)
val improve : Mf_core.Instance.t -> Mf_core.Mapping.t -> Mf_core.Mapping.t

(** [improve_reference] is the original implementation evaluating every
    candidate by a from-scratch [Period.period] (O(n + m) per candidate),
    with {!improve}'s margin and stop rule.  Kept as the
    differential-testing and benchmarking baseline; up to floating-point
    noise it explores the same descent path as {!improve}. *)
val improve_reference : Mf_core.Instance.t -> Mf_core.Mapping.t -> Mf_core.Mapping.t
