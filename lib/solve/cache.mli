(** Canonical-instance answer cache.

    Entries live in {e canonical space}: the portfolio canonicalizes the
    instance ({!Mf_core.Canon}), solves the canonical form, caches that
    answer, and maps the allocation back through the inverse machine
    permutation on every return — hit or miss alike.  Because a machine
    permutation permutes per-machine load sums without reordering any
    floating-point operation inside them, the mapped-back answer of a
    cache hit is bit-for-bit the answer a fresh solve would produce;
    the only observable difference is the [cache_hit] stats flag.

    The key is the canonical key (the binary image of the canonical
    form, {!Mf_core.Canon.t}) joined with every request parameter that
    can influence the outcome (rule, seed, setup, budget, certificate
    flag) — see {!request_key}.  Eviction is least-recently-used
    ({!Mf_structures.Lru}).

    Every operation is internally mutex-protected: the daemon shares
    one cache across its request worker threads. *)

type t

(** A cached answer, in canonical space: [alloc] indexes canonical
    machines and must be mapped through {!Mf_core.Canon.map_from_canon}
    before leaving the solver. *)
type entry = {
  status : Solver.status;
  period : float option;
  alloc : int array option;
  lower_bound : float option;
  engines : Solver.engine_id list;
  stats : Solver.stats;
}

(** [create ?capacity ()] makes an empty cache (default capacity
    {!default_capacity}).
    @raise Invalid_argument when [capacity < 1]. *)
val create : ?capacity:int -> unit -> t

val default_capacity : int

(** [request_key canon req] is the full cache key for [req] solved in
    the canonical frame [canon]. *)
val request_key : Mf_core.Canon.t -> Solver.request -> string

val find : t -> string -> entry option

(** [probe c key] is [find c key] except that a miss is not counted in
    {!stats}: the daemon's reader probes with it and leaves a miss to
    the worker's [find], so each request counts once. *)
val probe : t -> string -> entry option
val add : t -> string -> entry -> unit
val clear : t -> unit

type stats = { hits : int; misses : int; evictions : int; length : int; capacity : int }

val stats : t -> stats

(** Hit fraction over all lookups so far; [0.] before any lookup. *)
val hit_rate : t -> float
