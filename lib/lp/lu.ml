(* Sparse LU factorisation of a simplex basis, with a product-form eta
   file for cheap basis exchanges, one instance per ordered field.

   The factorisation is left-looking Gilbert–Peierls: basis columns are
   eliminated one at a time, each by a sparse lower-triangular solve
   whose reached set is found by a symbolic DFS over the L pattern, so
   the numeric work is proportional to the fill actually produced rather
   than to dim^2.  Pivoting is Markowitz-flavoured: columns are
   processed in order of increasing entry count, and within a column the
   pivot row is chosen, among rows whose magnitude clears a threshold
   fraction of the column maximum, as the one with the fewest entries in
   the original basis matrix (lowest row index on ties — every choice
   rule here is deterministic, which the search layer's bit-identity
   contract depends on).

   Basis exchanges are absorbed by product-form eta vectors: replacing
   the column at basis position [p] by an entering column with FTRAN
   image [w] appends the eta (p, w), through which every later FTRAN and
   BTRAN is threaded.  The simplex driver refactorises from scratch when
   the eta file reaches its cap (64 etas), when the entries accumulated
   in the eta file would exceed twice the fill of L + U, or when [update]
   refuses an eta pivot too small to divide by safely — the simpler
   product-form update standing in for Forrest–Tomlin's row/column
   surgery.  Each refactorisation also recomputes the basic solution
   from the fresh factors.

   Exact fields ([eps = 0]) run the same code with exact zero tests; the
   threshold pivoting degenerates to "any nonzero", and periodic
   refactorisation doubles as a guard against rational operand growth in
   long eta chains.

   The field-specific code is written once, in lu_body.mlh, and included
   below for each field by cppo at build time (see Simplex for why there
   is no functor). *)

exception Singular of int
(* Raised by [factorize] when no acceptable pivot exists at the given
   elimination step: the proposed basis is (numerically) singular. *)

module type S = sig
  type elt
  type t

  type source = { mat : elt Sparse.repr; aux_ind : int array; aux_val : elt array }

  val factorize : src:source -> basis:int array -> t
  val factorize_repair : repair:(pos:int -> row:int -> unit) -> src:source -> basis:int array -> t

  val dim : t -> int
  val eta_count : t -> int
  val fill : t -> int
  val ftran : t -> rhs:elt array -> out:elt array -> unit
  val btran : t -> cvec:elt array -> out:elt array -> unit
  val update : t -> w:elt array -> pos:int -> bool
end

module Float_lu = struct
  module F = Mf_numeric.Ordered_field.Float_field

#include "lu_body.mlh"
end

module Rat_lu = struct
  module F = Mf_numeric.Ordered_field.Rat_field

#include "lu_body.mlh"
end
