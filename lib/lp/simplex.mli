(** Two-phase primal simplex over an ordered field, in two instances:
    {!Float_solver} (hardware floats) and {!Rat_solver} (exact
    rationals).

    One solver: a {e revised} simplex over a sparse LU-factorised basis
    ({!Sparse}, {!Lu}).  Per iteration it runs one BTRAN for the duals,
    one O(nnz) pricing pass that also applies the previous pivot's Devex
    reference-weight update, one FTRAN for the entering column, under
    Devex pricing one more BTRAN (the pivot row of the old basis, which
    the next pricing pass sweeps), and a product-form eta update, with
    periodic refactorisation.
    Two entry points, {!S.solve_sparse_detailed} (cold) and
    {!S.solve_sparse_from_basis} (warm), both take the constraint matrix
    in CSC form ({!Sparse}).

    The float instance solves the LP relaxations inside branch-and-bound,
    {!Splitting} and {!Node_bound}; the exact-rational instance certifies
    it — both in the test-suite and at runtime, through {!Mip.certify},
    warm-started from the float basis when the float path reports
    [Infeasible] or [Stalled] on a system known to be feasible.

    Both instances are compiled from one source, the template
    [simplex_body.mlh] (likewise [sparse_body.mlh] and [lu_body.mlh]),
    which cppo includes once per field at build time.  No functor is
    involved, so the float instance's arithmetic compiles to unboxed
    float instructions on flat float arrays.

    Numerical discipline of the inexact instance: rows are equilibrated
    by exact powers of two, every threshold is {e relative} to the
    magnitude of the computation it tests (a reduced cost's terms, the
    entering column's FTRAN image), pricing is Devex with a stall
    detector that falls back to Bland's rule (whose anti-cycling
    argument needs no tolerance assumptions), and a pivot budget turns
    the remaining failure mode into the typed [Stalled] outcome.
    Exact fields ([eps = rel_eps = 0]) run unscaled with exact
    comparisons and an unbounded default budget: termination is
    guaranteed because Bland's rule terminates from any basis and a
    strict objective improvement can never revisit a basis.

    Problems must be given in standard form
    [min c'x  s.t.  Ax = b, x >= 0]: {!Splitting.build} writes the
    throughput LP in it, and {!Micro_mip.build} the relaxation of the
    paper's MIP (9). *)

(** Raised when an input coefficient is NaN or infinite (inexact fields
    only): such values would corrupt the row equilibration silently.
    [row >= 0] names the offending constraint row, with [col = n]
    (the column count) denoting its right-hand side; [row = -1] is the
    objective vector.  With several offenders, the first in column
    order of the matrix is reported, then the rhs, then the
    objective. *)
exception Non_finite of { row : int; col : int }

module type S = sig
  type elt

  type outcome =
    | Optimal of elt array * elt  (** primal solution and objective value *)
    | Infeasible
    | Unbounded
    | Stalled
        (** the pivot budget ran out before optimality — the typed
            replacement for the former behaviour of looping (or cycling)
            forever on numerically hard instances *)

  (** Full solver report. *)
  type detail = {
    outcome : outcome;
    basis : int array;
        (** final basis, [basis.(i)] = column basic in row [i]; columns
            [>= n] are phase-1 artificials (redundant rows).  Feed it to
            {!solve_sparse_from_basis} of the exact instance (through
            {!Mip.certify}) to certify a float result from it: the
            basis is repaired, phase 2 runs when the repaired basis is
            feasible and phase 1 runs from it otherwise — never a cold
            restart. *)
    iterations : int;  (** pivots performed, both phases *)
    degenerate : int;  (** pivots with no objective progress *)
    bland_pivots : int;  (** pivots taken under the Bland fallback *)
    factorizations : int;  (** LU factorisations of the basis *)
    eta_updates : int;
        (** basis exchanges absorbed as product-form etas instead of a
            refactorisation *)
    refactorizations : int;
        (** factorisations forced after the first of a phase — by the
            eta-file cap, accumulated fill, or a refused eta pivot *)
    fallbacks : int;
        (** restarts from the all-artificial basis after a numerical
            breakdown of a warm start (0 on a cold solve) *)
    repairs : int;
        (** basis positions the start factorisation replaced by an
            artificial ({!Lu.S.factorize_repair}): singular, repeated
            or out-of-range entries of a warm-start basis *)
  }

  (** [solve_sparse_detailed ?iter_budget ~a ~b ~c ()] minimizes [c'x]
      subject to [a x = b], [x >= 0], cold, pricing Devex in both
      phases.  [a] is in compressed-sparse-column form
      ({!Sparse.S.of_columns}): the throughput-form LPs are ~99% zeros.
      Rows with negative [b] are negated internally.  [iter_budget]
      bounds the pivots of both phases.  For inexact fields it defaults
      to [max 4000 (100 rows + 10 cols)], where [cols] counts the
      structural columns plus one artificial per row; for exact fields
      it is unlimited.
      @raise Invalid_argument on dimension mismatches.
      @raise Non_finite on NaN/infinite coefficients (inexact fields). *)
  val solve_sparse_detailed :
    ?iter_budget:int -> a:elt Sparse.repr -> b:elt array -> c:elt array -> unit -> detail

  (** Warm start, re-optimizing from the proposed basis whatever it
      is.  Entries that are out of range or repeated,
      and positions past the array's end, start empty; surplus entries
      are dropped.  The basis is factorised in repair mode
      ({!Lu.S.factorize_repair}): every position without an
      acceptable pivot takes the artificial of the lowest uncovered
      row ([detail.repairs]).  A primal-feasible start runs phase 2
      only.  Otherwise phase 1 runs from the given basis: when some
      basic value is negative, one auxiliary column
      x0 = -(sum of the basic columns at negative positions) is pivoted
      in at the most negative position first (Chvátal's
      single-artificial start), and phase 1 minimizes the artificials
      plus x0.  Phase 1 prices Devex, phase 2 Bland (a warm phase 2 is
      typically a handful of pivots, where the first-candidate scan is
      cheapest).  The returned basis never names x0.  Only a numerical
      breakdown restarts from the all-artificial basis
      ([detail.fallbacks]); {!solve_sparse_detailed} is this same
      routine started from that basis.  Every choice is deterministic. *)
  val solve_sparse_from_basis :
    ?iter_budget:int ->
    a:elt Sparse.repr ->
    b:elt array ->
    c:elt array ->
    basis:int array ->
    unit ->
    detail
end

(** Float instance, used by {!Micro_mip}, {!Node_bound} and
    {!Splitting}. *)
module Float_solver : S with type elt = float

(** Exact rational instance: the certification path. *)
module Rat_solver : S with type elt = Mf_numeric.Rat.t
