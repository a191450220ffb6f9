(** The anytime portfolio: heuristics → certified LP bound → exact
    branch-and-bound, chained through a shared incumbent, over a
    canonical-instance answer cache.

    {b Staging.}  For a feasible request the portfolio always runs the
    heuristic stage (cheap, yields the first incumbent), then decides
    the LP stage by budget: it runs when the remaining node-equivalent
    allowance exceeds {!Engine.lp_cost_estimate} — or unconditionally
    when [want_certificate] is set.  The LP contributes a certified
    (shaved) lower bound and, when rounding succeeds and improves the
    incumbent, a better mapping.  If the incumbent already meets the
    bound the answer is [Optimal] with no search at all.  Otherwise the
    exact stage receives the {e remaining} allowance as its node budget
    together with the incumbent and the bound, and the best answer at
    exhaustion is returned with an honest status ([Feasible gap] when a
    bound exists, [Budget_exhausted] when not).

    {b Determinism.}  Every stage decision is made against the
    deterministic node-equivalent ledger (never the wall clock), so a
    fixed request always produces the same outcome — see {!Solver}.

    {b Cache.}  With [?cache] the portfolio solves in canonical space
    and keys the answer by {!Cache.request_key}, whose instance part is
    the binary canonical key ({!Mf_core.Canon.t}): a few microseconds
    to build, paid by every feasible solve, cache or not.  A hit returns
    the stored answer mapped back through the inverse machine
    permutation, bit-for-bit equal to a fresh solve except for the
    [cache_hit] flag.  Misses are stored after solving, so
    near-duplicate request storms (machine permutations, type
    relabelings of the same instance) hit after the first
    representative.  {!cached} is the same look-up without the solve:
    the daemon answers hits with it on the connection's reader thread
    and queues only misses.

    {b Deadline honesty.}  For [Deadline_ms] budgets the exact stage
    charges its per-node LP bound oracle's simplex pivots into the same
    node-equivalent ledger at {!Solver.node_lp_pivot_cost} — without
    this the oracle's work would be free and deadline requests would
    overshoot wall time roughly 5x on oracle-heavy instances.  [Nodes]
    budgets keep the plain node-count contract unchanged.

    {b Cancellation.}  With [?cancel], a set token makes [solve] raise
    {!Mf_parallel.Pool.Cancelled}: the token is checked between stages
    and polled at every search node, nothing is written to the cache,
    and no partial outcome escapes. *)

(** [solve ?cache ?pool ?cancel req] — see above.  Infeasible rules
    return [Infeasible] without touching any engine or the cache.
    [pool] is handed to the exact stage ({!Engine.exact}); outcomes —
    and hence cache entries — are bit-identical with or without it.
    @raise Mf_parallel.Pool.Cancelled when [cancel]'s token is set. *)
val solve :
  ?cache:Cache.t ->
  ?pool:Mf_parallel.Pool.t ->
  ?cancel:Mf_parallel.Pool.token ->
  Solver.request ->
  Solver.outcome

(** [cached ~cache req] is [Some] of what [solve ~cache req] returns
    when [req]'s answer is already in [cache] (the same canonical frame,
    key and mapped-back outcome, [cache_hit] set), and [None] otherwise
    — for an infeasible request too, which is never cached.  A hit
    counts in {!Cache.stats}, a miss does not ({!Cache.probe}): a caller
    that then calls [solve] on the miss counts it once. *)
val cached : cache:Cache.t -> Solver.request -> Solver.outcome option
