(** Incremental divisible-workload LP bound for exact-search nodes.

    One [t] tracks a branch-and-bound assignment prefix through
    {!push}/{!pop} calls mirroring the search's assign/undo journal, and
    {!bound} solves the splitting LP of the tasks the prefix leaves
    uncommitted, written by {!Splitting.build} (the builder of the root
    LP, so with nothing pushed the two LPs are one): because the search
    assigns tasks in backward order (successors first), every committed
    task's product count [x] is exact at push time, so the committed
    region collapses into per-machine load coefficients on the
    throughput column and the LP keeps one flow row and [m] rate
    columns {e per uncommitted task only}.  The LP shrinks as the search
    descends — smallest exactly where node counts explode.

    The relaxation is rule-aware.  Committing a task to a machine locks
    that machine under the search's mapping rule — to the task's type
    (specialized) or entirely (one-to-one) — and locked-out rate
    columns are fixed to zero.  Every completion of the prefix that
    satisfies the rule is a feasible point of the restricted LP, so the
    optimum [rho*] upper-bounds every completion's throughput and
    [1/rho*] — deflated by a small safety factor covering float
    tolerance — is a sound period lower bound for pruning.  Under the
    general rule no columns are excluded and the bound is the plain
    splitting relaxation of the remaining subproblem.

    Each solve is warm-started from the basis recorded by the previous
    solve at the same depth (a per-depth basis stack): sibling nodes
    share their uncommitted task set, so their LPs have identical shape
    and differ only in load and lock coefficients.  A depth with no
    recorded basis starts from the depth above's, mapped into its rows
    and columns (every node at one depth commits the same task, so the
    map is fixed).  {!Simplex.S.solve_sparse_from_basis}
    re-optimizes from whatever basis it gets — repairing positions the
    new locks make singular, and running phase 1 from the stale vertex
    when it is infeasible — so staleness costs pivots, never soundness.
    All arithmetic is the deterministic float
    simplex, and the warm starts and reuses depend only on this oracle's
    own earlier calls: the bound is a deterministic function of the
    sequence of [push]/[pop]/[bound] calls since {!create} (not of the
    prefix alone), independent of thread schedule — parallel searches
    using a fresh oracle per subtree stay byte-identical across
    [--jobs]. *)

type t

(** [create ~rule inst] builds the oracle; [rule] must match the
    search's rule — a stricter rule yields tighter, still sound, bounds
    for that rule's completions only.  O(n + m) state; no solve yet. *)
val create : rule:Mf_core.Mapping.rule -> Mf_core.Instance.t -> t

(** [push t ~task ~machine] commits [task] to [machine].
    @raise Invalid_argument when [task] is already committed or its
    successor is not ([push]es must follow the backward assignment
    order — the product count of [task] is computed from its
    successor's). *)
val push : t -> task:int -> machine:int -> unit

(** [pop t] undoes the most recent {!push} (bit-exactly: journalled
    state is restored verbatim, not recomputed).
    @raise Invalid_argument when the journal is empty. *)
val pop : t -> unit

(** [bound t ~cutoff] evaluates the current reduced LP (warm-started)
    and returns either a period lower bound valid for every
    rule-respecting completion of the pushed prefix, or a value
    [< cutoff].  The caller prunes when the result reaches [cutoff]
    (its incumbent threshold); any returned value that does reach
    [cutoff] is a sound bound, while a smaller value only witnesses
    that the node cannot be pruned — the distinction lets the
    specialized-rule enumeration over free-machine type assignments
    stop at the first variant that cannot prune.  [0.0] (no pruning
    power) when the LP stalls, degenerates to zero throughput, or
    fails. *)
val bound : t -> cutoff:float -> float

(** Work counters, cumulative over the oracle's lifetime. *)
type stats = {
  solves : int;  (** LP solves actually performed *)
  reuses : int;  (** evaluations answered by the parent's optimum, no solve *)
  warm_starts : int;
      (** solves {e started} from a recorded basis — this depth's last
          optimum or the depth above's, mapped — successful or not: an
          attempt count.  [warm_starts - fallbacks] of them finished
          from their starting basis; the other [solves - warm_starts]
          started cold. *)
  pivots : int;  (** simplex iterations across all solves *)
  factorizations : int;  (** LU factorizations across all solves *)
  fallbacks : int;
      (** warm starts that restarted from the all-artificial basis
          after a numerical breakdown ({!Simplex.S.detail}) *)
  repairs : int;
      (** starting-basis positions the solver replaced by an artificial:
          singular under the current locks, or missing from a mapped
          basis *)
}

val stats : t -> stats

(** The all-zero counters, the unit of {!add_stats}. *)
val zero_stats : stats

(** Fieldwise sum, for totals over the per-subtree oracles of one
    search. *)
val add_stats : stats -> stats -> stats
