(** Machine periods and system throughput (paper Equation (1)).

    The period of machine [Mu] is the time it spends producing one final
    product: [period(Mu) = sum over tasks i on u of x_i * w(i,u)].
    The system period is the maximum over machines (the slowest machine
    paces the pipeline); the throughput is its inverse. *)

(** [machine_periods inst mp] is the vector of per-machine periods; unused
    machines have period [0]. *)
val machine_periods : Instance.t -> Mapping.t -> float array

(** [period inst mp] is the system period [max_u period(Mu)]. *)
val period : Instance.t -> Mapping.t -> float

(** [throughput inst mp] is [1 / period] (products per time unit). *)
val throughput : Instance.t -> Mapping.t -> float

(** [critical_machines inst mp] lists the machines attaining the system
    period, up to a relative tolerance of 1e-9. *)
val critical_machines : Instance.t -> Mapping.t -> int list

(** [period_exact inst mp] is the system period in exact rational
    arithmetic. *)
val period_exact : Instance.t -> Mapping.t -> Mf_numeric.Rat.t

(** [with_setup inst mp ~setup] is the system period when a machine running
    several task {e types} must be reconfigured between types.  In the
    cyclic steady state a machine batching [k >= 2] distinct types cycles
    through them and back to its first type every period, so it pays
    [k * setup] time units per period ([k] switches — including the one
    closing the cycle — not the one-pass [k - 1]).  Machines hosting a
    single type (hence specialized and one-to-one mappings) are unaffected.
    [Exact.Dfs.general ~setup] charges the same convention, and a unit test
    pins the two against each other.  This quantifies the paper's Section 6
    remark that general mappings are impractical "because of the
    unaffordable reconfiguration costs".
    @raise Invalid_argument if [setup < 0]. *)
val with_setup : Instance.t -> Mapping.t -> setup:float -> float
