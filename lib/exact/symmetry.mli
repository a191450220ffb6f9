(** Machine symmetry detection, the instance reduction behind the
    symmetry breaking of {!Dfs}.

    Lives in its own compilation unit because {!Reduction} depends on
    {!Dfs} (the Theorem 2 oracle solves instances exactly), while the
    search needs the class partition — this unit breaks the cycle. *)

(** [machine_classes inst] partitions machines into symmetry equivalence
    classes: [classes.(u)] is the smallest machine index [v] such that
    machines [u] and [v] have bit-identical [(w, f)] columns ([w] for
    every type, [f] for every task).  Interchanging two machines of one
    class permutes the loads of any mapping without changing the period —
    bit-for-bit, because the columns are bit-equal — so a search need only
    branch on the lowest-index {e unused} representative of each class.
    Computed once per solve in O(m^2 (n + p)). *)
val machine_classes : Mf_core.Instance.t -> int array

(** [has_machine_symmetry inst] is true when some class has >= 2 members
    (i.e. symmetry breaking can prune anything at all). *)
val has_machine_symmetry : Mf_core.Instance.t -> bool
