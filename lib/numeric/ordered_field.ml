(** Ordered-field abstraction shared by the numerical algorithms that
    run over either hardware floats or exact rationals (notably the LP
    core: {!Mf_lp.Sparse}, {!Mf_lp.Lu} and {!Mf_lp.Simplex} are written
    once as templates over a module [F] and instantiated with each field
    at build time). *)

module type S = sig
  type t

  val zero : t
  val one : t
  val of_int : int -> t
  val of_float : float -> t
  val to_float : t -> float
  val add : t -> t -> t
  val sub : t -> t -> t
  val mul : t -> t -> t
  val div : t -> t -> t
  val neg : t -> t
  val abs : t -> t
  val compare : t -> t -> int
  val equal : t -> t -> bool

  (** Comparison tolerance: the field's notion of "numerically zero".
      Exact fields use [zero]. *)
  val eps : t

  (** Relative comparison tolerance: algorithms that keep row/column
      norms alongside their data (notably {!Mf_lp.Simplex}) test values
      against [eps + rel_eps * norm], so a threshold means the same
      thing whatever the scale of the row it guards.  Exact fields use
      [zero], making every such test exact. *)
  val rel_eps : t

  (** [is_finite x] is false only for non-finite inexact values (float
      nan/infinities).  Exact fields are always finite. *)
  val is_finite : t -> bool

  val to_string : t -> string
end

(** Hardware double-precision floats with an absolute tolerance.

    The arithmetic is [external] primitives, not [let]-bound functions,
    and the module is deliberately left unsealed: a primitive travels in
    the signature, so a caller compiled against this module's [.cmi]
    alone (dune's dev profile passes [-opaque]) still emits the unboxed
    machine instruction instead of a closure call returning a boxed
    float.  The LP core's float instance depends on this.  [compare] is
    [Float.compare] ([compare nan nan = 0]) and [equal] is
    [Float.equal] ([equal nan nan = true]), unlike [%equal]. *)
module Float_field = struct
  type t = float

  let zero = 0.0
  let one = 1.0

  external of_int : int -> float = "%floatofint"
  external of_float : float -> float = "%identity"
  external to_float : float -> float = "%identity"
  external add : float -> float -> float = "%addfloat"
  external sub : float -> float -> float = "%subfloat"
  external mul : float -> float -> float = "%mulfloat"
  external div : float -> float -> float = "%divfloat"
  external neg : float -> float = "%negfloat"
  external abs : float -> float = "%absfloat"
  external compare : float -> float -> int = "%compare"

  let equal = Float.equal
  let eps = 1e-9
  let rel_eps = 1e-9
  let is_finite = Float.is_finite
  let to_string = string_of_float
end

(** Exact rationals: comparisons are exact, [eps] is zero. *)
module Rat_field : S with type t = Rat.t = struct
  type t = Rat.t

  let zero = Rat.zero
  let one = Rat.one
  let of_int = Rat.of_int
  let of_float = Rat.of_float
  let to_float = Rat.to_float
  let add = Rat.add
  let sub = Rat.sub
  let mul = Rat.mul
  let div = Rat.div
  let neg = Rat.neg
  let abs = Rat.abs
  let compare = Rat.compare
  let equal = Rat.equal
  let eps = Rat.zero
  let rel_eps = Rat.zero
  let is_finite _ = true
  let to_string = Rat.to_string
end
