(** Compensated (Kahan–Babuska) floating-point summation.

    Used wherever long sums of per-task period contributions are formed, so
    that machine periods do not drift on chains with hundreds of tasks. *)

type t

(** A fresh accumulator holding [0.0]. *)
val create : unit -> t

(** [add acc x] accumulates [x] with error compensation. *)
val add : t -> float -> unit

(** [total acc] is the compensated running total. *)
val total : t -> float

(** [reset acc] clears the accumulator back to [0.0]. *)
val reset : t -> unit

(** [sum xs] is the compensated sum of an array. *)
val sum : float array -> float

(** [sum_by f xs] is the compensated sum of [f x] over [xs]. *)
val sum_by : ('a -> float) -> 'a array -> float
