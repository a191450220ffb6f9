(** Event calendar: a time-ordered queue of int-coded events.

    Entries carry a monotone sequence number so that simultaneous events
    fire in insertion order — the simulator is fully deterministic for a
    given seed.  The queue is a binary heap over three parallel arrays
    (float times, int sequence numbers, int codes), so {!schedule} and
    {!pop} allocate nothing beyond the occasional doubling of the
    arrays.  What a code means is the caller's business: {!Desim} packs
    an event kind and a machine (or a commit index) into it. *)

type t

val create : unit -> t

(** [schedule cal ~time code] enqueues an occurrence.
    @raise Invalid_argument if [time] is negative or nan. *)
val schedule : t -> time:float -> int -> unit

(** [min_time cal] is the time of the earliest occurrence.
    @raise Invalid_argument if the calendar is empty. *)
val min_time : t -> float

(** [pop cal] removes the earliest occurrence and returns its code.
    @raise Invalid_argument if the calendar is empty. *)
val pop : t -> int

(** [next cal] pops the earliest occurrence as [(time, code)]. *)
val next : t -> (float * int) option

val is_empty : t -> bool
val length : t -> int
