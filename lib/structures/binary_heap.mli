(** Array-based binary min-heap, polymorphic in the element type.

    The ordering is supplied at creation time.  The node queue of
    {!Mf_lp.Micro_mip}'s best-first branch-and-bound is its only library
    user; the simulator's event calendar is {!Mf_sim.Calendar}. *)

type 'a t

(** [create ~cmp] is an empty heap ordered by [cmp] (minimum first). *)
val create : cmp:('a -> 'a -> int) -> 'a t

val length : 'a t -> int
val is_empty : 'a t -> bool

(** [push h x] inserts in O(log n). *)
val push : 'a t -> 'a -> unit

(** [peek h] is the minimum element without removing it. *)
val peek : 'a t -> 'a option

(** [pop h] removes and returns the minimum element. *)
val pop : 'a t -> 'a option

(** [pop_exn h] is [pop] but raises [Not_found] on an empty heap. *)
val pop_exn : 'a t -> 'a

(** [clear h] removes every element, keeping the backing storage. *)
val clear : 'a t -> unit

(** [of_array ~cmp xs] heapifies an array in O(n). *)
val of_array : cmp:('a -> 'a -> int) -> 'a array -> 'a t

(** [to_sorted_list h] drains a copy of the heap in ascending order. *)
val to_sorted_list : 'a t -> 'a list

(** [iter f h] visits elements in unspecified order. *)
val iter : ('a -> unit) -> 'a t -> unit
