(** Exact-rational certification of float LPs.

    {!certify} re-solves any float standard-form LP in exact rationals;
    {!Splitting}, the MIP (9) node LPs of {!Micro_mip} and the LP bench
    call it, each with its own rule for when. *)

(** Which solver produced a certified answer: the float simplex alone,
    or the exact-rational fallback it warm-started. *)
type path = [ `Float | `Rational ]

(** Work of a certified solve (see {!Splitting.solve}). *)
type certified_stats = {
  float_iterations : int;  (** pivots of the float attempt *)
  exact_iterations : int;  (** pivots of the rational fallback (0 on the float path) *)
  factorizations : int;
      (** LU basis factorisations across both attempts (revised simplex) *)
  eta_updates : int;
      (** basis exchanges absorbed by product-form eta updates — the
          cheap path; the ratio of [eta_updates] to [factorizations]
          is the basis-reuse rate *)
  refactorizations : int;
      (** factorisations forced mid-solve by the eta cap, fill growth,
          or a refused eta pivot *)
  path : path;
}

(** All-zero stats record, the identity for aggregation. *)
val zero_stats : certified_stats

(** [certify ?basis ~a ~b ~c ()] solves the float standard-form LP
    [min c'x, a x = b, x >= 0] in exact rationals: every coefficient is
    converted exactly, the matrix keeps its index arrays.  With [basis]
    (typically a float solve's final [detail.basis]) the rational solver
    starts from it ({!Simplex.S.solve_sparse_from_basis}: repaired where
    singular, phase 2 straight away when feasible, phase 1 from it
    otherwise — never a cold restart); without, it solves cold.  The
    exact instance has no pivot budget, so the outcome is never
    [Stalled]. *)
val certify :
  ?basis:int array ->
  a:float Sparse.repr ->
  b:float array ->
  c:float array ->
  unit ->
  Simplex.Rat_solver.detail
