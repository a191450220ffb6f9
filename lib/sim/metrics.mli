(** Post-processing of simulation results: utilisation, empirical failure
    rates, bottleneck identification and a one-page text report. *)

type machine_stats = {
  machine : int;
  utilisation : float;  (** busy time / horizon *)
  executions : int;  (** completed task executions *)
}

(** [machine_stats inst mp result] aggregates per-machine statistics. *)
val machine_stats :
  Mf_core.Instance.t -> Mf_core.Mapping.t -> Desim.result -> machine_stats list

(** [bottleneck inst mp result] is the machine with the highest
    utilisation.  Note that with unlimited raw material every machine
    upstream of the analytic critical machine also saturates, so ties are
    resolved toward the lowest machine index; use
    {!Mf_core.Period.critical_machines} for the analytic answer. *)
val bottleneck : Mf_core.Instance.t -> Mf_core.Mapping.t -> Desim.result -> int

(** [loss_summary inst mp result] pairs each task with its empirical and
    configured failure rates.  The empirical rate is [None] for a task
    that never executed ({!Desim.measured_loss_rate} returns [nan]
    there — 0/0 has no estimate); {!report} renders such tasks as
    [n/a]. *)
val loss_summary :
  Mf_core.Instance.t ->
  Mf_core.Mapping.t ->
  Desim.result ->
  (int * float option * float) list

(** [report inst mp result] renders everything as text. *)
val report : Mf_core.Instance.t -> Mf_core.Mapping.t -> Desim.result -> string

(** {1 Dynamic (breakdown) metrics} *)

(** [measured_availability result] is, per machine, the fraction of the
    horizon the machine was up ([1 - downtime / horizon]). *)
val measured_availability : Desim.result -> float array

(** [adjusted_throughput inst mp model] is the analytic
    availability-adjusted steady-state throughput
    [min_u avail_u / load_u] over machines with positive load — what the
    line sustains in the long run under [wear = 0], unbounded buffers and
    an uncontended crew pool.  [0] when no machine carries load. *)
val adjusted_throughput :
  Mf_core.Instance.t -> Mf_core.Mapping.t -> Breakdown.t -> float

(** [lost_per_breakdown inst mp result] is the measured production deficit
    per failure: the analytic no-breakdown expectation for the window
    minus the measured outputs, divided by the number of breakdowns.
    [None] when no breakdown occurred (n/a — never NaN). *)
val lost_per_breakdown :
  Mf_core.Instance.t -> Mf_core.Mapping.t -> Desim.result -> float option

(** [remap_latency_histogram result] buckets the landed re-map decision
    latencies into 8 equal-width [(lo, hi, count)] bins ([[]] when no
    re-map landed). *)
val remap_latency_histogram : Desim.result -> (float * float * int) list

(** [dynamic_report ~model inst mp result] renders the availability
    metrics as text: breakdown/downtime per machine, measured vs analytic
    availability-adjusted throughput under [model], products lost per
    breakdown and the re-map latency histogram. *)
val dynamic_report :
  model:Breakdown.t ->
  Mf_core.Instance.t ->
  Mf_core.Mapping.t ->
  Desim.result ->
  string
