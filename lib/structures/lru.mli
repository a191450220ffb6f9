(** Bounded least-recently-used cache.

    A fixed-capacity map whose [find] promotes the entry to
    most-recently-used and whose [add] evicts the least-recently-used
    entry once the capacity is reached.  Backbone of the canonical-answer
    cache of [Mf_solve.Cache]; kept generic (functorised over the key's
    hash/equality) so other subsystems can reuse it.

    Operations are O(1) amortised: a hash table maps keys to nodes of an
    intrusive doubly-linked recency list.  Not thread-safe — callers that
    share a cache across domains must synchronise externally. *)

module Make (K : Hashtbl.HashedType) : sig
  type 'a t

  (** [create ~capacity] is an empty cache evicting beyond [capacity]
      entries.
      @raise Invalid_argument when [capacity < 1]. *)
  val create : capacity:int -> 'a t

  val capacity : 'a t -> int
  val length : 'a t -> int

  (** [find t k] is the cached value, promoted to most-recently-used.
      Counts one hit or one miss. *)
  val find : 'a t -> K.t -> 'a option

  (** [probe t k] is [find t k] except that a miss is not counted: a
      hit-only look-ahead for a caller that will [find] the key again
      on a miss. *)
  val probe : 'a t -> K.t -> 'a option

  (** [mem t k] checks presence without promoting and without touching
      the hit/miss counters. *)
  val mem : 'a t -> K.t -> bool

  (** [add t k v] inserts (or replaces) the binding and promotes it to
      most-recently-used, evicting the least-recently-used entry when the
      cache is full.  Replacement does not evict. *)
  val add : 'a t -> K.t -> 'a -> unit

  (** [remove t k] drops the binding if present. *)
  val remove : 'a t -> K.t -> unit

  val clear : 'a t -> unit

  (** Lifetime counters ([clear] resets entries, not counters). *)
  val hits : 'a t -> int

  val misses : 'a t -> int
  val evictions : 'a t -> int

  (** [to_list t] lists bindings from most- to least-recently-used
      (test/debug helper; O(n)). *)
  val to_list : 'a t -> (K.t * 'a) list
end
