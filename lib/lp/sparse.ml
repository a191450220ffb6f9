(* Compressed-sparse-column matrices, one instance per ordered field.

   This is the storage layer of the revised simplex: the constraint
   matrix is read column-wise both by pricing (reduced-cost dot products
   against the dual vector) and by the LU factorisation of the basis, so
   CSC is the natural layout.  The structure is deliberately minimal —
   build, read columns, map values — and carries no numerics beyond what
   construction needs: triangular solves belong to Lu, where the
   permutations live.

   The record itself is polymorphic in the value type so the exact
   rational certification path can receive the float path's matrix by a
   structure-preserving [map_values] (sharing the index arrays) instead
   of a dense detour.  The field-specific part is written once, in
   sparse_body.mlh, and included below for each field by cppo at build
   time (see Simplex for why there is no functor). *)

type 'v repr = {
  rows : int;
  cols : int;
  colptr : int array;  (* length cols + 1 *)
  rowind : int array;  (* length nnz, row index of each entry *)
  values : 'v array;  (* length nnz, parallel to rowind *)
}

let map_values f t = { t with values = Array.map f t.values }

module type S = sig
  type elt
  type t = elt repr

  val rows : t -> int
  val cols : t -> int
  val of_columns : rows:int -> cols:int -> (int * elt) list array -> t
  val of_dense : elt array array -> cols:int -> t
end

module Float_csc = struct
  module F = Mf_numeric.Ordered_field.Float_field

#include "sparse_body.mlh"
end

module Rat_csc = struct
  module F = Mf_numeric.Ordered_field.Rat_field

#include "sparse_body.mlh"
end
