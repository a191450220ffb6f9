(** Compressed-sparse-column matrices for the revised simplex.

    The representation is polymorphic in the value type so that
    {!map_values} can hand the float path's matrix to the exact-rational
    certification path structure-intact (the integer index arrays are
    shared, only the value array is rebuilt).  All numerics beyond
    construction — triangular solves, factorisation — live in {!Lu}. *)

type 'v repr = {
  rows : int;
  cols : int;
  colptr : int array;  (** length [cols + 1] *)
  rowind : int array;  (** row index per entry, parallel to [values] *)
  values : 'v array;
}

(** Structure-preserving value conversion (e.g. float to rational). *)
val map_values : ('a -> 'b) -> 'a repr -> 'b repr

module Make (F : Mf_numeric.Ordered_field.S) : sig
  type t = F.t repr

  val rows : t -> int
  val cols : t -> int

  (** [iter_col t j f] applies [f row value] to each stored entry of
      column [j], in storage order (not necessarily sorted by row). *)
  val iter_col : t -> int -> (int -> F.t -> unit) -> unit

  (** [of_columns ~rows ~cols columns] builds from per-column entry
      lists.  @raise Invalid_argument when [columns] does not hold [cols]
      lists, on out-of-range rows or on duplicate (row, col) pairs. *)
  val of_columns : rows:int -> cols:int -> (int * F.t) list array -> t

  (** [of_dense a ~cols] drops exact zeros of a dense row-major matrix
      (NaN and infinities are kept).  Rows may be longer than [cols];
      the excess is ignored. *)
  val of_dense : F.t array array -> cols:int -> t
end
