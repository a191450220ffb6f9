(** The paper's mixed-integer program for specialized mappings
    (Section 6.1, program (9)), solved by best-first branch-and-bound
    over its LP relaxation.

    Variables, for tasks [i], machines [u] and types [j]:
    - [a(i,u)] binary — task [i] runs on machine [u];
    - [t(u,j)] binary — machine [u] is specialized to type [j];
    - [x(i)] rational — products task [i] processes per output;
    - [y(i,u)] rational — linearisation of [a(i,u) * x(i)];
    - [K] rational — the period, minimized.

    Constraints (3)-(8) of the paper, generalised from chains to in-forests
    by replacing [x_{i+1}] with [x_{succ(i)}] (1 for final tasks).  No
    bound rows: (3), (4) and (8) imply [a <= 1], [t <= 1] and
    [y <= MAXx], and (8) bounds [x] on every task.

    A search node forbids some (task, machine) pairs: [a(i,u) = 0].
    Branching on a fractional [a(i,u)] forbids [(i,u)] in one child and
    every other machine of task [i] in the other, which fixes
    [a(i,u) = 1] by row (3).  Once every [a] is integral, (4) and (5) make
    [t] integral on every used machine and the LP optimum is the period
    of the mapping, so nothing else is branched on. *)

type status =
  | Optimal  (** incumbent proved optimal *)
  | Feasible  (** node budget exhausted with an incumbent *)
  | Infeasible  (** no specialized mapping exists *)
  | Unknown  (** node budget exhausted with no incumbent *)

type solve_result = {
  mapping : Mf_core.Mapping.t option;  (** decoded allocation, when solved *)
  period : float option;
      (** period of the decoded mapping, recomputed exactly from the model
          of Section 4.1 (not the LP's [K], which carries tolerances) *)
  k : float option;  (** the MIP objective value *)
  status : status;
  nodes : int;  (** LP relaxations solved *)
}

(** [build ?forbidden inst] is the LP relaxation of program (9) in
    standard form [min c'v, a v = b, v >= 0] over the pairs that
    [forbidden] allows ([forbidden.(i * m + u)]; none forbidden without
    it).  Allowed pair [k] is the [k]-th allowed [(i,u)] in increasing
    [i * m + u]; [na] counts them, and a forbidden pair has no column and
    none of its own rows.  [MAXx] is {!Mf_core.Instance.max_x}, [F(i,u)]
    is [1 / (1 - f(i,u))], [s] a row's slack.

    Columns: a(pair k) at [k], y(pair k) at [na + k], t(u,j) at
    [2 na + u * p + j], x(i) at [2 na + m p + i], K at [2 na + m p + n];
    then the slack of row [r >= n] at [2 na + m p + 1 + r] (rows below
    [n] are equalities).  [c] is [1] on K and [0] elsewhere.

    Rows ([n + 2 m + 5 na]):
    - [i < n], (3): [sum_u a(i,u) = 1];
    - [n + u], (4): [sum_j t(u,j) + s = 1];
    - [n + m + u], (7): [sum_i w(i,u) y(i,u) - K + s = 0];
    - five rows per pair [k = (i,u)] from [n + 2 m + 5 k], with [t] of
      task [i]'s type: (5) [a - t + s = 0]; (6) [MAXx_i a + F(i,u) x(succ)
      - x(i) + s = MAXx_i] ([MAXx_i - F(i,u)] and no [x(succ)] for a final
      task); (8) [y - MAXx_i a + s = 0], [y - x(i) + s = 0] and
      [x(i) - y + MAXx_i a + s = MAXx_i]. *)
val build : ?forbidden:bool array -> Mf_core.Instance.t -> Splitting.lp

(** [solve ?node_budget inst] solves the MIP by best-first
    branch-and-bound (default budget: 200k node LPs), branching on the
    most fractional [a(i,u)] (an [a] within 1e-6 of an integer counts as
    integral), and decodes the allocation.  Node LPs run on the float
    simplex; one that stalls (or reports [Unbounded], impossible for a
    minimized [K >= 0]) is re-solved by {!Mip.certify} from its float
    basis, never pruned on a float guess. *)
val solve : ?node_budget:int -> Mf_core.Instance.t -> solve_result
