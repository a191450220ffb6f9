(** Compressed-sparse-column matrices for the revised simplex.

    The representation is polymorphic in the value type so that
    {!map_values} can hand the float path's matrix to the exact-rational
    certification path structure-intact (the integer index arrays are
    shared, only the value array is rebuilt).  All numerics beyond
    construction — triangular solves, factorisation — live in {!Lu}.

    The field-specific operations come in two instances, {!Float_csc}
    and {!Rat_csc}, generated at build time from one source template
    ([sparse_body.mlh]) rather than by a functor. *)

type 'v repr = {
  rows : int;
  cols : int;
  colptr : int array;  (** length [cols + 1] *)
  rowind : int array;  (** row index per entry, parallel to [values] *)
  values : 'v array;
}

(** Structure-preserving value conversion (e.g. float to rational). *)
val map_values : ('a -> 'b) -> 'a repr -> 'b repr

module type S = sig
  type elt
  type t = elt repr

  val rows : t -> int
  val cols : t -> int

  (** [of_columns ~rows ~cols columns] builds from per-column entry
      lists.  @raise Invalid_argument when [columns] does not hold [cols]
      lists, on out-of-range rows or on duplicate (row, col) pairs. *)
  val of_columns : rows:int -> cols:int -> (int * elt) list array -> t

  (** [of_dense a ~cols] drops exact zeros of a dense row-major matrix
      (NaN and infinities are kept), the way tests write small LPs.
      Rows may be longer than [cols]; the excess is ignored.
      @raise Invalid_argument on a row shorter than [cols]. *)
  val of_dense : elt array array -> cols:int -> t
end

(** Float matrices ({!Mf_numeric.Ordered_field.Float_field}). *)
module Float_csc : S with type elt = float

(** Exact rational matrices ({!Mf_numeric.Ordered_field.Rat_field}). *)
module Rat_csc : S with type elt = Mf_numeric.Rat.t
