(** Engine adapters: each existing solving stack wrapped behind the
    uniform {!Solver.request} → {!Solver.outcome} interface.

    Every adapter is total — rule-infeasible instances come back as
    [Infeasible] outcomes, LP failures as typed statuses — and
    deterministic for a fixed request (see the contract in {!Solver}). *)

(** The heuristic stage: {!Mf_exact.Dfs.seed_incumbent} under the
    request's rule, seed and setup — the registry best (specialized, and
    general when [m >= p]), the best single-machine mapping (general
    when [m < p]) or the injective greedy seed (one-to-one, [m >= n]) —
    with [heuristic_runs] the number of mappings it scored.  The
    portfolio hands this mapping to {!exact} as its incumbent, so a
    request runs the heuristics once.

    Status is always [Feasible infinity] (no certified bound) or
    [Infeasible]. *)
val heuristics : Solver.request -> Solver.outcome

(** Divisible-workload splitting LP: a certified lower bound for every
    rule, shaved by a relative margin (see {!certified_lower_bound}),
    plus — for the specialized and general rules — the rounded feasible
    mapping when rounding succeeds.  Statuses: [Optimal] when the
    rounded period meets the shaved bound, [Feasible gap] when rounding
    succeeds, [Bound_only] under one-to-one (rounding does not apply)
    or when rounding fails ([m < p]), [Infeasible] when the LP is. *)
val lp : Solver.request -> Solver.outcome

(** Task count from which {!exact} turns the per-node LP bound on: the
    measured crossover below which the plain search finishes faster
    than the LP solves it would save. *)
val lp_bound_threshold : int

(** [node_bound_factory ~rule inst] adapts {!Mf_lp.Node_bound} to the
    {!Mf_exact.Dfs.node_bound} oracle record: returns the per-subtree
    factory to pass as [Dfs.solve ?node_bound] plus a reader summing
    the work counters ({!Mf_lp.Node_bound.stats}) of all oracles
    created so far (safe to call after the solve; oracle registration
    is mutex-guarded because subtree searches run on pool domains).
    Exposed for callers driving {!Mf_exact.Dfs} directly ([mfopt exact],
    the bench); {!exact} wires it automatically. *)
val node_bound_factory :
  rule:Mf_core.Mapping.rule ->
  Mf_core.Instance.t ->
  (unit -> Mf_exact.Dfs.node_bound) * (unit -> Mf_lp.Node_bound.stats)

(** Exact branch-and-bound ({!Mf_exact.Dfs.solve}).  The request budget
    maps to the node budget through {!Solver.node_allowance}
    ([Unlimited] uses the Dfs default of 20 million nodes).
    [lower_bound] and [incumbent] are threaded through to the search —
    the portfolio's shared-incumbent hooks.  [pool] runs the search's
    root subtrees on that {!Mf_parallel.Pool}; the outcome is
    bit-identical either way (the Dfs --jobs invariant), only the wall
    time changes.

    The per-node warm-started LP bound oracle ({!Mf_lp.Node_bound},
    rule-aware) is on exactly when the instance has at least
    {!lp_bound_threshold} tasks.  The oracles' simplex iterations are
    reported in the outcome's [lp_pivots].

    [pivot_charge] (default 0) prices oracle pivots in node-equivalents
    against the node budget — [Dfs.solve]'s option; the portfolio
    passes {!Solver.node_lp_pivot_cost} for deadline-derived budgets so
    [Deadline_ms] requests do not overshoot when the oracle is active.
    [cancel] is cooperative cancellation, polled per node.
    @raise Mf_parallel.Pool.Cancelled when [cancel]'s token is set. *)
val exact :
  ?lower_bound:float ->
  ?incumbent:Mf_core.Mapping.t * float ->
  ?pool:Mf_parallel.Pool.t ->
  ?pivot_charge:int ->
  ?cancel:Mf_parallel.Pool.token ->
  Solver.request ->
  Solver.outcome

(** Exhaustive enumeration ({!Mf_exact.Brute}) — [Optimal] or
    [Infeasible], never budgeted.  Ground truth for tiny instances. *)
val brute : Solver.request -> Solver.outcome

(** [certified_lower_bound r] shaves one relative margin off the LP
    optimum — [1e-9] on the rational-certified path, [1e-6] on the
    float path — so the returned value errs low and stays a certificate
    even when the simplex optimum sits a hair above the true infimum. *)
val certified_lower_bound : Mf_lp.Splitting.result -> float

(** {1 Deterministic cost model}

    Node-equivalent prices the portfolio uses to budget its stages
    (fixed constants — see the calibration note in {!Solver}). *)

(** Node-equivalents one simplex pivot costs. *)
val pivot_node_cost : int

(** [heuristic_cost inst] prices the whole heuristic stage. *)
val heuristic_cost : Mf_core.Instance.t -> int

(** [lp_cost_estimate inst] prices an LP solve {e before} running it
    (the usual pivot count is a small multiple of [n + m]); the
    portfolio charges actual pivots afterwards. *)
val lp_cost_estimate : Mf_core.Instance.t -> int
