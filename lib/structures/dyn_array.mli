(** Growable arrays (a minimal vector type).

    OCaml 5.1 predates [Stdlib.Dynarray]; this fills the gap for the
    simulator's trace buffers and the graph algorithms. *)

type 'a t

val create : unit -> 'a t
val length : 'a t -> int
val is_empty : 'a t -> bool

(** [get v i]. @raise Invalid_argument if out of bounds. *)
val get : 'a t -> int -> 'a

(** [set v i x]. @raise Invalid_argument if out of bounds. *)
val set : 'a t -> int -> 'a -> unit

(** [push v x] appends in amortised O(1). *)
val push : 'a t -> 'a -> unit

(** [pop v] removes and returns the last element. *)
val pop : 'a t -> 'a option

val clear : 'a t -> unit
val iter : ('a -> unit) -> 'a t -> unit
val iteri : (int -> 'a -> unit) -> 'a t -> unit
val fold_left : ('b -> 'a -> 'b) -> 'b -> 'a t -> 'b
val to_array : 'a t -> 'a array
val to_list : 'a t -> 'a list
val of_array : 'a array -> 'a t
