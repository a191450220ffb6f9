(** Exact mapping solver by depth-first branch-and-bound.

    Plays the role CPLEX plays in the paper's Section 7.3: computing the
    optimal mapping on small instances.  Tasks are assigned in backward
    order (successors first) so the product counts [x_i] are exact at
    every node; branches try machines by increasing resulting load.

    The engine prunes with, in increasing order of sophistication:

    - the incumbent, seeded with the caller's incumbent or else
      {!seed_incumbent};
    - an {e incremental} lower bound maintained during descent: committing
      a task fixes its product count and tightens each unassigned
      predecessor's optimistic contribution from the static optimum to
      [x * min_u w/(1-f)] in O(preds) per node, combined with the packing
      bound [(committed load + remaining optimistic load) / m];
    - a {e dominance table} keyed on the canonical frontier signature
      (depth, product counts crossing the frontier, machine symmetry
      class and rule commitment sequence): a state whose canonical load
      vector is componentwise >= a fully-explored one cannot improve the
      incumbent;
    - {e machine symmetry breaking}: machines with bit-identical [(w, f)]
      columns (see {!Symmetry.machine_classes}) are interchangeable, so
      only the lowest-index unused member of each class is branched on.

    The root level is split into one subtree per (canonical) machine of
    the first task, each with a jobs-independent node budget; given a
    [pool], the subtrees run on that {!Mf_parallel.Pool}.  Subtrees that
    exhaust their slice are {e split into their children} and re-run
    with the redistributed budget —
    dynamic redistribution, so an unbalanced tree sheds its heavy subtree
    into finer pieces that spread across domains.  One exception: an
    exhausted subtree whose projected next-round slice is at least twice
    the slice it just failed on gets a single {e unsplit retry} before
    being split — when most siblings finished cheaply, the freed budget
    often closes a heavy subtree whole, where splitting it would throw
    away the partial exploration and re-pay the prefix from scratch.
    Split and retry decisions and per-subtree budgets depend only on
    deterministic aggregates of the
    previous round, and each subtree searches against its own incumbent
    seeded from the deterministic round start, so node counts, prune
    counters and the exhaustion flag — not just the period — are
    bit-identical for every [--jobs] value.  The reported {e mapping} is
    the incumbent allocation carried across rounds: each round's strict
    improvements are merged in canonical subtree order, so the mapping
    too agrees with the serial run bit-for-bit for any [--jobs], whether
    or not the search proves optimality.  The search is one pass: the
    rounds that prove the optimum also produce the mapping reported.

    Like the paper's MIP runs — which "with more than 15 tasks ... is not
    able to find solutions anymore" — the search carries a node budget;
    when it is exhausted the best mapping found so far is returned with
    [optimal = false]. *)

(** Search counters, for benches and tests. *)
type stats = {
  bound_prunes : int;  (** children cut by incumbent or lower bound *)
  dominance_prunes : int;  (** states cut by the dominance table *)
  dominance_states : int;  (** load vectors stored in the table *)
  symmetry_skips : int;  (** branches skipped by symmetry breaking *)
  best_at_node : int;
      (** node count (within its root subtree) when the winning incumbent
          was found; 0 when the heuristic seed was never improved *)
  root_subtrees : int;
      (** total subtrees spawned over all rounds: the initial root split
          plus every child emitted by dynamic re-splitting *)
  lp_solves : int;
      (** per-node LP bound evaluations (0 without a [node_bound] oracle) *)
  lp_prunes : int;
      (** nodes cut by the LP bound after the cheap incremental bound and
          the dominance test both passed *)
  nogood_records : int;
      (** LP-pruned frontiers recorded into the dominance table as
          no-goods, so identical-key frontiers with componentwise >=
          loads later prune without re-solving the LP *)
}

(** Per-node LP bound oracle (see {!solve}'s [node_bound]).  This
    library deliberately does not depend on [Mf_lp], so the oracle is
    three closures; [Mf_lp.Node_bound] is the canonical implementation,
    wired up by [Mf_solve.Engine] and the bench.  Contract: after
    [nb_push]ing the search's assignment prefix (task, machine) pair by
    pair, [nb_bound] returns a sound lower bound on the period of every
    completion of that prefix — [0.0] when it has nothing to say — and
    [nb_pop] undoes the latest push.  The bound must be a deterministic
    function of the oracle's own [nb_push]/[nb_pop]/[nb_bound] calls
    (warm starts and reused parent bounds may make it depend on earlier
    nodes, not on the prefix alone); every subtree search gets a fresh
    oracle and makes the same calls for any [--jobs], so [--jobs]
    determinism holds. *)
type node_bound = {
  nb_push : task:int -> machine:int -> unit;
  nb_pop : unit -> unit;
  nb_bound : cutoff:float -> float;
  nb_pivots : unit -> int;
      (** cumulative simplex pivots this oracle has spent — read as
          deltas around each [nb_bound] call when [pivot_charge > 0],
          so oracle work can be charged against the node budget *)
}

type result = {
  mapping : Mf_core.Mapping.t;
  period : float;
  optimal : bool;  (** true when the search space was exhausted *)
  nodes : int;  (** number of branch nodes explored *)
  stats : stats;
}

(** [solve ?node_budget ?setup ?pool ?dominance ?symmetry ~rule inst]
    solves the mapping problem exactly under any of the paper's three
    rules (default budget: 20 million nodes, split evenly over the root
    subtrees).  [pool] runs the root subtrees on that pool (the
    portfolio, [mfopt exact --jobs] and the bench pass
    {!Mf_parallel.Pool.shared}, amortized across solves); without one
    they run in the calling domain, in canonical order.  [symmetry]
    (default true) and [dominance] toggle the corresponding pruning
    rules, for ablation.  [dominance] defaults to
    {e auto}: on exactly when two same-type tasks share a bit-identical
    failure row — the necessary condition for frontier signatures to
    repeat across prefixes and the table to hit (on fully heterogeneous
    instances every signature is unique and maintenance would be pure
    overhead).

    [lower_bound] is a {e certified} lower bound on the optimal period —
    typically the divisible-workload LP optimum from
    [Mf_lp.Splitting.solve] (kept caller-supplied so this library never
    depends on the LP stack).  When the incumbent meets it the search
    stops with [optimal = true] immediately (the seed incumbent meeting
    it reports [nodes = 0]), and a budget-exhausted run whose best
    period meets it is upgraded to [optimal = true].  Soundness is the
    caller's contract: a bound that is not actually a lower bound can
    certify a suboptimal mapping.

    [incumbent] is the search's seed — the shared best-so-far of
    [Mf_solve.Portfolio]'s earlier stages, which already ran
    {!seed_incumbent} — used as given, not merged with another seed;
    without it the search seeds itself with {!seed_incumbent} at the
    default seed.  The pair is [(mapping, period)] where [period]
    is the mapping's {e penalised} period under the same [setup]
    convention the search optimises ({!Mf_core.Period.with_setup} for
    the general rule, {!Mf_core.Period.period} otherwise); supplying a
    period {e below} the mapping's true one is unsound for the reported
    mapping the same way a wrong [lower_bound] is.

    [node_bound] is a factory for per-node LP bound oracles: when
    supplied, every node below the root evaluates a warm-started LP
    bound of its assignment prefix (after the incremental bound and the
    dominance test, which are much cheaper) and is pruned when the bound
    cannot beat the incumbent; pruned frontiers are recorded into the
    dominance table as no-goods.  A {e factory} rather than an oracle:
    it is invoked once per search, so parallel subtrees never share
    mutable LP state and [--jobs] byte-identity is preserved.  Supplying
    [node_bound] also flips the [dominance] auto-default to on (the
    table doubles as the no-good store).  Soundness is the caller's
    contract, exactly as for [lower_bound].

    [pivot_charge] (default 0) prices one oracle simplex pivot in
    node-equivalents: each subtree charges its own oracle's pivot
    deltas ([nb_pivots]) against its budget slice alongside plain
    nodes, so deadline-derived budgets stay honest when the per-node LP
    bound is active.  The charge is a pure per-subtree function, so
    [--jobs] byte-identity is unaffected; 0 reproduces the plain
    node-count accounting exactly (the convention [Nodes] budgets and
    the committed BENCH_exact rows assume).

    [cancel] enables cooperative cancellation: the token is polled at
    every node and between rounds, and a set token makes [solve] raise
    {!Mf_parallel.Pool.Cancelled} (never a partial result).  Unset or
    absent tokens change nothing.
    @raise Invalid_argument when no mapping satisfying [rule] exists
    ([m < p] for specialized, [m < n] for one-to-one), or [setup < 0],
    or [pivot_charge < 0], or [incumbent] violates [rule].
    @raise Mf_parallel.Pool.Cancelled when [cancel]'s token is set. *)
val solve :
  ?node_budget:int ->
  ?setup:float ->
  ?pool:Mf_parallel.Pool.t ->
  ?dominance:bool ->
  ?symmetry:bool ->
  ?lower_bound:float ->
  ?incumbent:Mf_core.Mapping.t * float ->
  ?node_bound:(unit -> node_bound) ->
  ?pivot_charge:int ->
  ?cancel:Mf_parallel.Pool.token ->
  rule:Mf_core.Mapping.rule ->
  Mf_core.Instance.t ->
  result

(** [solve_static ?node_budget ?setup ~rule inst] is the previous
    generation of the solver — incumbent plus a {e static} per-task
    suffix bound only, serial, incumbent seeded from H2/H3/H4w.  Kept as
    the baseline the bench's node-reduction factors are measured against
    and as an independent witness for the differential tests. *)
val solve_static :
  ?node_budget:int ->
  ?setup:float ->
  rule:Mf_core.Mapping.rule ->
  Mf_core.Instance.t ->
  result

(** [seed_incumbent ?seed ~setup rule inst] is the one heuristic seed
    under [rule], with the number of mappings it scored:

    - [Specialized], and [General] when [m >= p]:
      {!Mf_heuristics.Registry.best} [?seed], over all six heuristics.
      Its mapping is specialized, so under [General] it pays no setup
      and its period is also its {!Mf_core.Period.with_setup} period;
    - [General] when [m < p]: {!best_single_machine}, [m] mappings;
    - [One_to_one]: {!greedy_one_to_one}, one mapping.

    [Mf_solve.Engine.heuristics] returns it for the request's seed, and
    {!solve} seeds itself with it when no [incumbent] is given.
    [seed] defaults to {!Mf_heuristics.Registry.default_seed}.
    @raise Invalid_argument when no mapping satisfying [rule] exists. *)
val seed_incumbent :
  ?seed:int ->
  setup:float ->
  Mf_core.Mapping.rule ->
  Mf_core.Instance.t ->
  (Mf_core.Mapping.t * float) * int

(** [greedy_one_to_one inst] is the injective greedy seed of the
    one-to-one search: tasks in backward order, each to the unused
    machine minimising its [x * w] contribution.
    @raise Invalid_argument when [m < n]. *)
val greedy_one_to_one : Mf_core.Instance.t -> Mf_core.Mapping.t

(** [best_single_machine ~setup inst] puts every task on the one machine
    minimising {!Mf_core.Period.with_setup} and returns that mapping with
    its period: the general-rule seed when [m < p] leaves the specialized
    heuristics infeasible (always a valid general mapping).
    @raise Invalid_argument if [setup < 0]. *)
val best_single_machine : setup:float -> Mf_core.Instance.t -> Mf_core.Mapping.t * float

(** [specialized ?node_budget inst] is [solve ~rule:Specialized]. *)
val specialized : ?node_budget:int -> Mf_core.Instance.t -> result

(** [general ?setup inst] is [solve ~rule:General].
    With [setup > 0], a machine hosting [k >= 2] distinct task {e types}
    pays [k * setup] time units per period — the cyclic steady-state
    convention of {!Mf_core.Period.with_setup}, with which the reported
    period agrees exactly — and the search optimises the penalised
    period, quantifying when reconfiguration costs erase the advantage of
    general mappings.  Unlike the other rules, [m >= p] is {e not}
    required: when the specialized heuristics cannot seed the incumbent,
    the best single-machine mapping does. *)
val general : ?setup:float -> Mf_core.Instance.t -> result

(** [one_to_one inst] is [solve ~rule:One_to_one]. *)
val one_to_one : Mf_core.Instance.t -> result
