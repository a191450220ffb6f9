(** Local-search improvement of specialized mappings (extension beyond the
    paper).

    Starting from any specialized mapping, two neighbourhoods are explored
    with steepest descent:

    - {b task moves}: reassign one task to another machine that is empty or
      already dedicated to its type;
    - {b group swaps}: exchange the machines of two dedicated groups
      (always type-safe).

    Each round applies the best improving move; the search stops when no
    move improves the period or 100 rounds have run.  The result never
    has a larger period than the input, and remains specialized.

    Candidate moves are scored incrementally through {!Mf_eval.State}
    (O(subtree + touched machines) per candidate); see
    {!improve_reference} for the original full-recomputation baseline. *)

val improve : Mf_core.Instance.t -> Mf_core.Mapping.t -> Mf_core.Mapping.t

(** [improve_reference] is the original implementation evaluating every
    candidate by a from-scratch [Period.period] (O(n + m) per candidate).
    Kept as the differential-testing and benchmarking baseline; up to
    floating-point noise it explores the same descent path as
    {!improve}. *)
val improve_reference : Mf_core.Instance.t -> Mf_core.Mapping.t -> Mf_core.Mapping.t
