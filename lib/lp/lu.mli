(** Sparse LU factorisation of a simplex basis with a product-form eta
    file, the engine room of the revised simplex ({!Simplex}).

    [factorize] runs a left-looking Gilbert–Peierls elimination with
    Markowitz-flavoured pivoting: columns in order of increasing entry
    count, pivot rows by (magnitude threshold, fewest original entries,
    lowest index) — every tie-break deterministic, as the search layer's
    bit-identity contract requires.  [ftran]/[btran] solve with B and
    B^T through the factors and the eta file; [update] absorbs one basis
    exchange as a product-form eta.  The caller refactorises when
    [update] refuses (eta pivot below its floor), when {!S.eta_count}
    reaches its cap, or when the entries accumulated in the eta file
    would pass twice {!S.fill} — see DESIGN.md §15.

    Two instances, {!Float_lu} and {!Rat_lu}, are generated at build
    time from one source template ([lu_body.mlh]) rather than by a
    functor. *)

exception Singular of int
(** No acceptable pivot at the given elimination step: the proposed
    basis is (numerically) singular. *)

module type S = sig
  type elt
  type t

  (** Where {!factorize} reads the basis columns, in place.  With
      [dim = mat.rows] and [cols = mat.cols], a column id [j] names
      - column [j] of the CSC matrix [mat] when [0 <= j < cols];
      - the unit column e_r when [j = cols + r], [0 <= r < dim] (the
        simplex's artificials);
      - the sparse column with rows [aux_ind] and values [aux_val] when
        [j = cols + dim] (the simplex's auxiliary column x0);
      - an empty column when [j < 0]. *)
  type source = { mat : elt Sparse.repr; aux_ind : int array; aux_val : elt array }

  (** [factorize ~src ~basis] factorises the [dim] x [dim] matrix whose
      [p]-th column is the column of [src] named by [basis.(p)], reading
      each from its arrays.
      @raise Singular when the basis is (numerically) singular.
      @raise Invalid_argument when [basis] does not have [dim] entries,
      when it names an id past [cols + dim], or when [aux_ind] and
      [aux_val] differ in length. *)
  val factorize : src:source -> basis:int array -> t

  (** [factorize_repair ~repair ~src ~basis] is {!factorize} that
      never raises [Singular]: at an elimination step with no acceptable
      pivot it factorises the unit column of the lowest-index row not
      yet pivoted in place of [basis.(pos)], and calls
      [repair ~pos ~row] with that position and row.  The factors are
      those of [basis] with every reported position replaced by the
      unit column [e_row] — the caller updates its basis to name that
      row's artificial.  Substitutions are reported in elimination
      order, and equal inputs give equal substitutions (the
      column order and the pivot rule are deterministic).  Empty
      columns (negative ids, or stored columns without entries) always
      repair. *)
  val factorize_repair : repair:(pos:int -> row:int -> unit) -> src:source -> basis:int array -> t

  val dim : t -> int

  (** Etas absorbed since factorisation. *)
  val eta_count : t -> int

  (** Stored entries of L + U (diagonal included) — the fill trigger. *)
  val fill : t -> int

  (** [ftran t ~rhs ~out] writes B^-1 [rhs] to [out]; [rhs] is indexed
      by row, [out] by basis position.  [rhs] is not modified; [out]
      must not alias [rhs]. *)
  val ftran : t -> rhs:elt array -> out:elt array -> unit

  (** [btran t ~cvec ~out] writes B^-T [cvec] to [out]; [cvec] is
      indexed by basis position, [out] by row.  [cvec] is not modified;
      [out] must not alias [cvec]. *)
  val btran : t -> cvec:elt array -> out:elt array -> unit

  (** [update t ~w ~pos] absorbs the basis exchange that replaces the
      column at basis position [pos] by an entering column whose FTRAN
      image is [w].  Returns [false] — leaving [t] unchanged — when the
      eta pivot [w.(pos)] is too small to divide by safely; the caller
      must then refactorise. *)
  val update : t -> w:elt array -> pos:int -> bool
end

(** Float factorisations ({!Mf_numeric.Ordered_field.Float_field}). *)
module Float_lu : S with type elt = float

(** Exact rational factorisations ({!Mf_numeric.Ordered_field.Rat_field}). *)
module Rat_lu : S with type elt = Mf_numeric.Rat.t
