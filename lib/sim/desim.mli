(** Discrete-event simulation of a micro-factory under a mapping.

    Products stream through the application graph: every machine repeatedly
    picks a ready task among those allocated to it — the one furthest
    behind its required share of surviving production (survivors divided
    by the analytic product count of the task's successor), ties broken
    toward the system output.  This proportional-share dispatch runs
    every branch of an assembly at the failure-adjusted rate its
    successor needs; simpler policies all failed fuzzing (each failure
    is pinned in [test/fuzz/corpus]): static downstream-first priority
    starved sibling branches sharing a machine, emptiest-output-buffer
    livelocked when another machine drained a buffer the instant it was
    filled, and unweighted production balancing underfed high-loss
    branches that must run more often than their siblings.  The chosen
    task consumes one product from
    each predecessor buffer, works for [w(i,u)] time units, and loses the
    product with probability [f(i,u)].  Source
    tasks draw from an unlimited raw-material supply, matching the paper's
    throughput regime ("a large number of products must be produced",
    initialization and clean-up phases abstracted away).

    Dispatch is event-driven: after each event only the machines it can
    have enabled try to start (the machine that finished and the host of
    the task its product feeds; the hosts of a started task's
    predecessors under a finite buffer capacity; every machine after a
    repair, a landed re-map and at time 0), in increasing index.  That
    starts machines in the order repeated scans of every machine would,
    so results do not depend on the optimisation.  The simulation loop
    allocates no per-event values of its own; {!Event.t} values are built
    only for an [on_event] listener.

    The measured steady-state throughput converges to the analytic
    [1 / period] of {!Mf_core.Period} — the validation the paper's C++
    simulator provided.

    {2 Dynamics: breakdowns, repairs and online re-mapping}

    With a {!Breakdown} model the machines are subject to
    operation-dependent failures: hazard accrues only while a machine
    works, an execution interrupted by a failure holds its work in place
    and {e resumes} after repair (work conserving), and repairs draw on a
    finite crew pool.  A down machine starts nothing, so its input buffers
    hold and — under a finite [buffer_capacity] — upstream machines
    eventually block on full buffers.  With [wear > 0] the failure law is
    history-based: each unit produced since the last repair scales the
    hazard rate up (Knapp & Göttlich).  For [wear = 0], unbounded buffers
    and an uncontended crew pool the long-run throughput is the
    availability-adjusted steady state
    [min_u (avail_u / load_u)] with [avail_u = mtbf/(mtbf+mttr)] — the
    breakdown-scenario fuzz oracle pins the simulator to that analytic
    value.

    An optional {!remapper} is consulted after every availability change
    (breakdown or repair).  Its decision costs simulated time — [evals]
    work units at 0.01 time units each — and the resulting commit
    {e races the next failure}: if availability changes again before the
    commit lands, the decision is stale and is dropped.  Moves only
    re-route {e future} executions; an in-flight product stays with the
    machine holding it. *)

type result = {
  outputs : int;  (** finished products during the measurement window *)
  throughput : float;  (** outputs per time unit over the window *)
  window : float;  (** measurement window length *)
  consumed : int;  (** raw products drawn by source tasks (whole run) *)
  lost : int array;  (** products destroyed, per task (whole run) *)
  executions : int array;  (** executions completed, per task (whole run) *)
  busy : float array;  (** busy time per machine (whole run) *)
  horizon : float;  (** total simulated time *)
  breakdowns : int array;
      (** failures per machine, including instantly-repaired ones *)
  downtime : float array;  (** time spent down within the horizon *)
  remaps : int;  (** re-map commits that landed (stale ones dropped) *)
  remap_latencies : float array;
      (** simulated decision latency of each landed commit, in order *)
  final_mapping : int array;  (** the live allocation when the run ended *)
}

(** An availability change the re-mapper is consulted about. *)
type change = Down of int | Up of int

type remap_decision = {
  moves : (int * int) array;  (** (task, new machine) re-assignments *)
  evals : int;  (** work units spent deciding — converted to latency *)
}

(** [remapper ~time ~down ~mapping change] is consulted right after the
    availability change has been applied ([down] and [mapping] are fresh
    copies of the live state).  [None] means leave the mapping alone. *)
type remapper =
  time:float -> down:bool array -> mapping:int array -> change ->
  remap_decision option

(** [run ?warmup ?buffer_capacity ~horizon ~seed inst mp] simulates until
    [horizon] (time units, i.e. ms for paper-style instances), discarding
    outputs before [warmup] (default: [horizon / 5]).

    [buffer_capacity] bounds the number of finished-but-unconsumed products
    each non-final task may hold (default: unbounded, the paper's model).
    A machine will not start a task whose output buffer is full, so finite
    capacities model blocking lines; throughput can only decrease.

    [breakdowns] enables the availability model.  Degenerate laws are
    byte-identical to the plain simulation on every behavioural field:
    [mttr = 0] folds instant repairs into the busy segment they interrupt,
    and [mtbf = infinity] never consumes hazard — breakdown draws come
    from per-machine Splitmix64-derived streams that never touch the
    product-loss stream.

    [remapper] is consulted on each breakdown/repair; each evaluation it
    reports costs 0.01 time units of simulated decision latency.

    [on_event] receives every event in time order; without it no
    {!Event.t} is built.

    @raise Invalid_argument if [horizon <= warmup], [buffer_capacity < 1],
    the breakdown model's machine count differs from the instance's, a
    re-map move is out of range, or the mapping does not fit the
    instance (another task count, or a machine out of range). *)
val run :
  ?warmup:float ->
  ?buffer_capacity:int ->
  ?breakdowns:Breakdown.t ->
  ?remapper:remapper ->
  horizon:float ->
  seed:int ->
  ?on_event:(Event.t -> unit) ->
  Mf_core.Instance.t ->
  Mf_core.Mapping.t ->
  result

(** [measured_loss_rate r ~task] is the empirical failure rate of a task
    over the whole run.  A task that never executed has no estimate: the
    result is [nan] (0/0), {e deliberately} — averaging it with other
    rates or comparing it would silently poison the result, so callers
    must test [executions.(task) > 0] first (or use
    {!Metrics.loss_summary}, which reports the missing estimate as
    [None] and renders it as n/a). *)
val measured_loss_rate : result -> task:int -> float
