(** The paper's future-work extension: divisible task workloads.

    "An interesting problem would be to consider that the instances of a
    same task can be computed by several machines.  Thus, the workload of a
    task would be divided and the throughput could be improved."
    (Conclusion of the paper.)

    With divisible workloads the problem becomes a pure linear program,
    posed here in {e throughput} form: let [y(i,u) >= 0] be the rate at
    which machine [u] processes task [i] (products per time unit) and
    [rho] the system throughput:

    {v maximize rho
      s.t.  sum_u y(i,u) * (1 - f(i,u)) = demand(i)          (flow)
            sum_i y(i,u) * w(i,u) <= 1                        (capacity) v}

    where [demand(i)] is [rho] for a sink task and the successor's total
    intake [sum_u y(j,u)] otherwise (one product from each predecessor
    per assembled output).  The reported period is [K = 1/rho], and the
    per-product counts are [x = y/K] — the classical period-minimization
    LP under the substitution [y = x/K].  The throughput form is chosen
    deliberately: in period form every non-sink flow row and every load
    row has rhs 0, so the simplex starts at a massively degenerate
    vertex and large instances stall on zero-step plateaus; with unit
    capacity rows the start vertex is non-degenerate on the machine side
    and solve times stay polynomial in practice through n = 100.

    The LP optimum is a {e lower bound} for every mapping rule of the
    paper (any specialized mapping is the special case where each task
    uses a single machine), and [round] turns the shares into a feasible
    specialized mapping, giving an LP-guided heuristic.

    One builder ({!build}) writes this LP in standard form, at the root
    and at every exact-search node ({!Node_bound}), and {!solve} solves
    it with the float simplex, certifying any float failure in exact
    rationals ({!Mip.certify}) — sweeps over large grids never abort on
    a numerically hard seed. *)

(** What a search prefix has fixed, as the LP sees it.  Tasks are
    committed successors first, so a committed task's product count is
    exact and the committed region enters the LP as numbers. *)
type prefix = {
  committed : bool array;  (** [committed.(i)]: task [i] is placed *)
  x : float array;
      (** products of committed task [i] per finished product; read
          only where [committed] *)
  load : float array;
      (** [load.(u)]: busy time per finished product committed to
          machine [u] *)
  allowed : int -> int -> bool;
      (** [allowed i u]: may uncommitted task [i] use machine [u]?  A
          disallowed rate column is left empty. *)
}

(** A throughput LP in standard form [min c'y, a y = b, y >= 0]. *)
type lp = { a : float Sparse.repr; b : float array; c : float array }

(** [build ?prefix inst] is the throughput LP over the [nu] tasks
    [prefix] leaves uncommitted (all [n] without [prefix]: the root LP).
    Slot [s] is the [s]-th uncommitted task in increasing id.

    Columns: the rate y(slot, u) at [slot * m + u], rho at [nu * m], and
    the slack of machine [u]'s capacity row at [nu * m + 1 + u].  Rows:
    the flow rows by slot ([b = 0]), then the [m] capacity rows
    ([b = 1]).  [c] is [-1] on rho and [0] elsewhere, so the optimum is
    [-rho*].

    Flow row of slot [s] (task [i]): [sum_u (1 - f(i,u)) y(s,u)] minus
    the demand: [sum_u y(s',u)] for an uncommitted successor in slot
    [s'], [x j * rho] for a committed successor [j], [rho] for a sink.
    Capacity row of machine [u]: [sum_s w(i,u) y(s,u) + load u * rho +
    slack u = 1].

    Each rate column lists its own flow row, its capacity row, then the
    flow rows of its uncommitted predecessors; the rho column lists its
    flow entries by slot, then its load entries by machine. *)
val build : ?prefix:prefix -> Mf_core.Instance.t -> lp

type result = {
  period : float;  (** the LP optimum — a bound no integral mapping beats *)
  shares : float array array;
      (** [shares.(i).(u)]: fraction of task [i]'s workload on machine [u] *)
  loads : float array;  (** per-machine time per finished product *)
  stats : Mip.certified_stats;
      (** pivot counts of both attempts, and which one answered *)
}

(** Why an LP solve failed.  Unreachable for well-formed instances — the
    flow-conservation structure guarantees a feasible, bounded LP — but
    typed so grid sweeps record the failure instead of crashing. *)
type error = [ `Infeasible | `Unbounded ]

val describe_error : error -> string

(** [solve inst] solves the root LP with the float simplex.  When the
    float path reports [Infeasible], [Unbounded] or [Stalled], the LP is
    re-solved by {!Mip.certify} from the float solver's final basis,
    and that verdict is final ([stats.path = `Rational]).  Never raises
    on well-formed instances. *)
val solve : Mf_core.Instance.t -> (result, error) Stdlib.result

(** [solve_exact inst] solves the same LP entirely in exact rational
    arithmetic (no float attempt, no warm start) and returns the optimum
    period.  Ground truth for the [lp-differential] suite. *)
val solve_exact : Mf_core.Instance.t -> (float, error) Stdlib.result

(** Why rounding failed: the instance admits no specialized mapping at
    all ([m < p]), or some task has an empty eligible-machine list. *)
type round_error =
  | No_specialized_mapping
  | No_eligible_machine of int  (** the task index with no eligible machine *)

val describe_round_error : round_error -> string

(** [round inst r] builds a feasible {e specialized} mapping by walking
    tasks backward and assigning each to its largest-share eligible
    machine, breaking share ties toward the lowest machine index so the
    result is deterministic.  Returns the mapping and its (integral)
    period. *)
val round :
  Mf_core.Instance.t -> result -> (Mf_core.Mapping.t * float, round_error) Stdlib.result

(** [round_exn inst r] is [round], raising on failure.
    @raise Failure on [Error _]. *)
val round_exn : Mf_core.Instance.t -> result -> Mf_core.Mapping.t * float
