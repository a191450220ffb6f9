(** Domain generators: in-forest workflows, heterogeneous instances,
    rule-respecting mappings, move/swap sequences — all with
    integrated shrinking, all valid by construction at every shrink step.

    Instances are {e dyadic}: processing times are small integers scaled
    by powers of two and failure rates live on the 1/64 grid, so every
    coefficient is exactly representable in binary floating point and in
    rationals (the same trick as the [lp-differential] suite).  Generated
    populations deliberately cover the regimes that have bitten solvers
    before: mixed per-machine scales, degenerate [f = 0] rows, repeated
    task-type failure profiles (the dominance-table trigger), machine
    columns duplicated bit-for-bit (the symmetry trigger), forests with
    several roots, and single-task / single-machine corner cases.

    This module also hosts the {e deterministic indexed families} the
    [dfs-differential] and [lp-differential] suites enumerate, so the
    fuzzer and those suites draw from one shared pool. *)

(** One committed step of an evaluation sequence. *)
type op =
  | Move of { task : int; machine : int }
  | Swap of { u : int; v : int }

val op_to_string : op -> string

(** One step of a breakdown/repair history (machine index). *)
type avail_op = Down of int | Up of int

val avail_op_to_string : avail_op -> string

(** {1 Shrinking generators} *)

(** [instance ()] draws a heterogeneous dyadic instance.  [max_types]
    bounds the drawn type count [p] (the actual [p] is derived from the
    drawn type labels, so it shrinks with them); [machines_cover_types]
    forces [m >= p] (heuristics and specialized solvers need it);
    [duplicate_machine] appends, with probability 1/2, one machine whose
    [(w, f)] column is a bit-identical copy of machine 0 — guaranteeing
    {!Mf_exact.Symmetry.machine_classes} coverage.  [forest] (default
    true) permits several sinks; pass [false] for the paper's single
    final product (the simulation oracle needs it: a machine hosting two
    independent sinks may pace them unevenly, which the analytic period
    does not model).  [kmax] caps the power-of-two machine scale. *)
val instance :
  ?min_tasks:int ->
  ?max_tasks:int ->
  ?max_types:int ->
  ?min_machines:int ->
  ?max_machines:int ->
  ?machines_cover_types:bool ->
  ?duplicate_machine:bool ->
  ?forest:bool ->
  ?kmax:int ->
  unit ->
  Mf_core.Instance.t Gen.t

(** [allocation inst] draws an arbitrary (general-rule) mapping;
    machines shrink toward index 0. *)
val allocation : Mf_core.Instance.t -> Mf_core.Mapping.t Gen.t

(** [specialized_allocation inst] draws an injective type-to-machine
    assignment — always specialized-feasible.
    @raise Invalid_argument when [m < p]. *)
val specialized_allocation : Mf_core.Instance.t -> Mf_core.Mapping.t Gen.t

(** [ops inst ~max_ops] draws a move/swap sequence; the
    length shrinks first (shorter sequences are prefixes), then the
    individual steps. *)
val ops : Mf_core.Instance.t -> max_ops:int -> op array Gen.t

(** [breakdown_profile inst] draws one dyadic breakdown law per machine
    as [(mtbf_mult, mttr_ratio)] multiples of the mapping's analytic
    period: mtbf in [{8, 16, 32}] periods, mttr [{0, 1/4, 1/2}] of the
    mtbf, wear 0.  Shrinks toward the degenerate never-down law. *)
val breakdown_profile : Mf_core.Instance.t -> (float * float) array Gen.t

val breakdown_profile_to_string : (float * float) array -> string

(** [avail_script ~max_ops] draws a raw availability script — decode it
    with {!decode_avail}.  Raw scripts shrink structurally (shorter
    first, then element-wise) and every shrink decodes to a valid
    history. *)
val avail_script : max_ops:int -> (bool * int) array Gen.t

(** [decode_avail ~machines script] interprets a raw script statefully
    into a valid breakdown/repair history: a down step picks among the
    machines currently up, an up step among those currently down,
    falling back to the other kind when the wanted set is empty (all
    machines down is reachable). *)
val decode_avail : machines:int -> (bool * int) array -> avail_op array

(** {1 Printers for counterexamples} *)

val print_instance : Mf_core.Instance.t -> string
val print_with_mapping : Mf_core.Instance.t -> Mf_core.Mapping.t -> string

val print_case :
  Mf_core.Instance.t -> Mf_core.Mapping.t -> op array -> string

val print_breakdown_case :
  Mf_core.Instance.t -> Mf_core.Mapping.t -> (float * float) array -> string

val print_remap_case :
  Mf_core.Instance.t ->
  Mf_core.Mapping.t ->
  (bool * int) array ->
  budget:int ->
  string

(** {1 Deterministic indexed families (shared with the differential suites)} *)

(** [differential_instance ~rule i] is the [i]-th instance of the
    [dfs-differential] enumeration: chains and in-trees, [n <= 8],
    [m <= 4], sized so brute force stays affordable under [rule], every
    fifth instance task-attached. *)
val differential_instance : rule:Mf_core.Mapping.rule -> int -> Mf_core.Instance.t

(** [dyadic_lp_instance ~tasks ~machines ~kmax seed] is the mixed-scale
    dyadic family of the [lp-differential] suite: integer base workloads
    in [1, 32] scaled by per-machine powers of two up to [2^kmax],
    failure rates snapped to the 1/64 grid. *)
val dyadic_lp_instance :
  tasks:int -> machines:int -> kmax:int -> int -> Mf_core.Instance.t

(** [lp_differential_instance i] is the [i]-th instance of the
    [lp-differential] small tier (the [warm-start] oracle's pool too):
    [4 + i mod 9] tasks, [2 + i mod 4] machines, [kmax = i mod 11]. *)
val lp_differential_instance : int -> Mf_core.Instance.t
