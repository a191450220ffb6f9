(** Incremental evaluation of mappings under the period objective.

    All the solvers in this repository score candidate allocations with the
    same quantities: the product counts [x_i] (paper Equation (2)), the
    per-machine loads [sum x_i * w(i,u)] and their maximum, the period.
    This module owns that evaluation state {e mutably} and re-evaluates a
    candidate change in time proportional to what the change actually
    touches, instead of the O(n + m) full recomputation the first version
    of the local search performed per candidate:

    - a {b task move} [i -> u] rescales the product counts of [i]'s
      {e upstream subtree} (the tasks whose products flow through [i]) by
      the ratio [(1 - f(i, old)) / (1 - f(i, u))] and shifts [i]'s own
      contribution between two machines — O(|subtree| + touched machines),
      and O(1) when the ratio is exactly 1 (nothing upstream changes);
    - a {b machine group swap} [u <-> v] re-derives the x of every task
      sitting on [u] or [v] and of their upstream subtrees — O(affected);
    - a {b backward-order assignment} (heuristics engine, branch-and-bound)
      extends a partial state by one task in O(1).

    [try_*] functions evaluate without committing.  [apply_*] commit a
    move or swap in place; nothing records it, and a caller that wants an
    earlier mapping back reloads it with {!load_mapping}.
    {!assign_task_with} commits an assignment and pushes an entry onto an
    undo journal, so the depth-first branch-and-bound backtracks with
    {!undo} in O(1).

    Loads are held in compensated (Kahan–Babuska) accumulators and the
    journal stores exact accumulator snapshots, so undo restores state
    bit-for-bit; drift from long apply sequences stays at ulp scale and is
    checked against from-scratch recomputation by {!check}.

    Partial states (some tasks unassigned) are supported with the
    {e downstream-closure} invariant: whenever a task is assigned, its
    successor is too — the natural state of all backward-order solvers. *)

type t

(** {1 Construction} *)

(** [create inst] is the empty state: no task assigned, all loads zero. *)
val create : Mf_core.Instance.t -> t

(** [of_mapping inst mp] is the fully-assigned state evaluating [mp]; its
    {!period} equals [Period.period inst mp] bit-for-bit.  It is
    [create inst] followed by [load_mapping]. *)
val of_mapping : Mf_core.Instance.t -> Mf_core.Mapping.t -> t

(** [load_mapping st mp] overwrites [st] with the fully-assigned state
    evaluating [mp], a mapping of [st]'s instance: {!reset}, then the
    loads accumulated in [of_mapping]'s order, so the result equals
    [of_mapping (instance st) mp] bit for bit whatever [st] held before.
    It allocates nothing, which lets one state serve many evaluations. *)
val load_mapping : t -> Mf_core.Mapping.t -> unit

(** [reset st] clears every assignment, load and the assignment journal. *)
val reset : t -> unit

(** {1 Read access} *)

val instance : t -> Mf_core.Instance.t

(** [machine_of st i] is the machine of task [i], or [-1] if unassigned. *)
val machine_of : t -> int -> int

(** [x st i] is the current product count of task [i] ([nan] when [i] is
    unassigned). *)
val x : t -> int -> float

(** [machine_load st u] is machine [u]'s current period contribution
    (including any {e extra} costs injected via {!assign_task_with}). *)
val machine_load : t -> int -> float

(** [tasks_on st u] is the number of tasks currently assigned to [u]. *)
val tasks_on : t -> int -> int

(** [total_load st] is the sum of all machine loads (including injected
    {e extra} costs), maintained incrementally in a compensated
    accumulator and restored bit-for-bit by {!undo}.  Dividing by the
    machine count gives the averaging ("packing") lower bound used by the
    exact branch-and-bound. *)
val total_load : t -> float

(** [hosts_type st ~machine ~ty] is true when some task of type [ty] is
    currently assigned to [machine]. *)
val hosts_type : t -> machine:int -> ty:int -> bool

(** [move_allowed st ~task ~machine] is true when moving [task] to
    [machine] keeps the mapping specialized: every {e other} task on
    [machine] shares [task]'s type.  O(1). *)
val move_allowed : t -> task:int -> machine:int -> bool

(** [period st] is the current max load over machines (0 when empty).
    Amortised O(1): a cached maximum is maintained, invalidated by
    committed moves and recomputed lazily in O(m). *)
val period : t -> float

val is_complete : t -> bool

(** [to_array st] is a copy of the allocation array ([-1] = unassigned). *)
val to_array : t -> int array

(** [mapping st] is the completed mapping.
    @raise Invalid_argument if some task is unassigned. *)
val mapping : t -> Mf_core.Mapping.t

(** [undo_depth st] is the number of journalled assignments {!undo} can
    still revert. *)
val undo_depth : t -> int

(** {1 Backward-order assignment (partial states)} *)

(** [x_candidate st ~task ~machine] is the product count [task] would get
    on [machine]: [x_succ / (1 - f(task, machine))].
    @raise Invalid_argument if [task]'s successor is unassigned. *)
val x_candidate : t -> task:int -> machine:int -> float

(** [try_assign_with st ~extra ~task ~machine] is the load [machine] would
    carry after receiving the unassigned [task] (plus [extra] flat cost,
    e.g. a reconfiguration penalty) — the [exec_u] of the paper's
    Algorithms 2–6.  [extra] is required rather than optional because an
    optional float argument allocates a [Some] at every call, which
    matters in the branch-and-bound inner loop. *)
val try_assign_with : t -> extra:float -> task:int -> machine:int -> float

(** [assign_task_with st ~extra ~task ~machine] commits the assignment of
    a currently-unassigned task, journalling it for {!undo}.  O(1).
    @raise Invalid_argument if [task] is already assigned or its successor
    is not. *)
val assign_task_with : t -> extra:float -> task:int -> machine:int -> unit

(** [undo st] reverts the most recent {!assign_task_with}, restoring
    loads, the total and the period bit-for-bit.
    @raise Invalid_argument if the journal is empty. *)
val undo : t -> unit

(** {1 Move evaluation (complete or partial states)} *)

(** [try_move st ~task ~machine] is the system period if [task] moved to
    [machine], leaving the state untouched.  O(subtree + touched
    machines), falling back to one O(m) scan only when the move displaces
    the current critical machine. *)
val try_move : t -> task:int -> machine:int -> float

(** [apply_move st ~task ~machine] commits the move in place.
    @raise Invalid_argument while {!undo_depth} is positive: a commit
    would make the journalled assignments' load snapshots stale. *)
val apply_move : t -> task:int -> machine:int -> unit

(** [try_swap st ~u ~v] is the system period if machines [u] and [v]
    exchanged their task groups (always type-safe for specialized
    mappings), leaving the state untouched. *)
val try_swap : t -> u:int -> v:int -> float

(** [apply_swap st ~u ~v] commits the group swap in place.
    @raise Invalid_argument while {!undo_depth} is positive. *)
val apply_swap : t -> u:int -> v:int -> unit

(** {1 Debugging} *)

(** [check ?tol st] asserts that the incremental state matches a
    from-scratch recomputation: x within [tol] (relative), loads within
    [tol], type counts exactly, cached period within [tol].  Intended for
    tests and debugging only — it costs O(n + m·p).
    @raise Failure with a diagnostic on the first mismatch. *)
val check : ?tol:float -> t -> unit
