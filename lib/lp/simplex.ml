(* Two-phase primal revised simplex over a sparse LU-factorised basis,
   one instance per ordered field.

   Each pivot costs one BTRAN (duals), one O(nnz) pricing pass that
   also applies the previous pivot's Devex weight update, one FTRAN
   (entering column), one BTRAN of the pivot row for the Devex update
   the next pass applies (Devex pricing only), and a product-form eta
   append.  The basis is
   refactorised (Markowitz LU, see Lu) when the eta file reaches its cap
   of 64 etas, when the entries accumulated in it would pass twice the
   fill of L + U, or when an eta pivot is too small to divide by; the
   basic solution is recomputed from scratch at every refactorisation,
   which bounds drift.

   Numerical discipline (inexact fields only; exact fields have
   [eps] = [rel_eps] = 0 and every test below degenerates to an exact
   comparison):

   - rows are equilibrated by the power of two nearest their largest
     magnitude, rhs included, so scaled rows live in [-2, 2];
   - every threshold is relative: a value is "zero" against
     [eps + rel_eps * mag], where [mag] is the magnitude of the
     computation that produced it (the sum of the absolute terms of a
     reduced cost, the largest entry of an FTRAN image);
   - pricing is Devex, falling back to Bland's rule when a stall
     detector sees no objective progress over a window of degenerate
     pivots, and returning to Devex as soon as the objective moves
     again.  Bland's rule terminates from any basis and strict
     objective improvements can never revisit a basis, so the
     combination keeps the anti-cycling guarantee while avoiding
     Bland's pathological pivot counts on large degenerate LPs;
   - a pivot budget bounds the whole solve; exhausting it is reported
     as the typed [Stalled] outcome instead of looping forever. *)

(* Raised on NaN/infinite input coefficients, which would otherwise
   silently corrupt the row equilibration and every tolerance after it.
   [row] >= 0 names the offending constraint row ([col = n] meaning its
   right-hand side); [row = -1] is the objective. *)
exception Non_finite of { row : int; col : int }

(* The pricing rule of one phase: cold solves price Devex in both,
   warm starts Devex in phase 1 and Bland in phase 2. *)
type pricing = Devex | Bland

module type S = sig
  type elt

  type outcome =
    | Optimal of elt array * elt
    | Infeasible
    | Unbounded
    | Stalled

  type detail = {
    outcome : outcome;
    basis : int array;
    iterations : int;
    degenerate : int;
    bland_pivots : int;
    factorizations : int;
    eta_updates : int;
    refactorizations : int;
    fallbacks : int;
    repairs : int;
  }

  val solve_sparse_detailed :
    ?iter_budget:int -> a:elt Sparse.repr -> b:elt array -> c:elt array -> unit -> detail

  val solve_sparse_from_basis :
    ?iter_budget:int ->
    a:elt Sparse.repr ->
    b:elt array ->
    c:elt array ->
    basis:int array ->
    unit ->
    detail
end

(* The solver is written once, in simplex_body.mlh (Sparse and Lu
   likewise), and cppo includes it here once per field at build time.
   A functor would cost the float instance its speed.  Without flambda,
   every [F.mul] in a functor body is an indirect call that returns a
   boxed float, and every [F.t array] access is a generic one.  Library
   modules are also compiled with [-opaque] in dune's default profile,
   so only what a module's .cmi states crosses a module boundary.  An
   instance that binds [F] to the unsealed Ordered_field.Float_field
   finds [type t = float] and the field's [external] primitives there,
   and compiles its arithmetic to unboxed instructions on flat float
   arrays. *)

module Float_solver = struct
  module F = Mf_numeric.Ordered_field.Float_field
  module Sp = Sparse.Float_csc
  module Lufac = Lu.Float_lu

#include "simplex_body.mlh"
end

module Rat_solver = struct
  module F = Mf_numeric.Ordered_field.Rat_field
  module Sp = Sparse.Rat_csc
  module Lufac = Lu.Rat_lu

#include "simplex_body.mlh"
end
