(** The catalogue of specialized-mapping heuristics, keyed by the paper's
    names.

    {b Determinism contract.}  Every entry is a pure function of
    [(heuristic, instance, seed)]: same arguments, same mapping, on any
    machine and for any [--jobs] value of the surrounding run.  [seed]
    feeds the random draws of the randomized heuristics — today only H1;
    the informed heuristics H2..H4f ignore it — and defaults to
    {!default_seed} everywhere, so omitting it is itself deterministic.
    {!solve} and {!best_of} treat [seed] identically: [best_of] threads
    the caller's seed to {e every} listed entry (a caller-supplied seed is
    never silently replaced by the default for a subset of the runs). *)

type t = H1 | H2 | H3 | H4 | H4w | H4f

(** All heuristics, in the paper's presentation order. *)
val all : t list

val name : t -> string

(** [of_name s] parses a heuristic name: case-insensitive, surrounding
    whitespace ignored.  Inverse of {!name} by construction — the parser
    is derived from the printed names of {!all}, so every printed name is
    accepted (a round-trip test pins this). *)
val of_name : string -> t option

(** One-line description, as in Section 6.2. *)
val description : t -> string

(** The seed used when callers omit [?seed] (0). *)
val default_seed : int

(** [solve h ?seed inst] runs heuristic [h] under the determinism
    contract above ([seed] defaults to {!default_seed}; only H1 consumes
    it today).
    @raise Invalid_argument when [m < p]. *)
val solve : ?seed:int -> t -> Mf_core.Instance.t -> Mf_core.Mapping.t

(** [best_of ?seed hs inst] runs every heuristic of [hs] in list order —
    each with the same [seed] — and returns the mapping with the smallest
    period together with that period.  Ties keep the earliest heuristic
    of [hs], so the result is deterministic.
    @raise Invalid_argument when [hs] is empty or [m < p]. *)
val best_of : ?seed:int -> t list -> Mf_core.Instance.t -> Mf_core.Mapping.t * float

(** [best ?seed inst] is [best_of ?seed all inst]: the incumbent seed of
    the exact branch-and-bound ({!Mf_exact.Dfs.seed_incumbent}), where a
    tighter initial incumbent prunes exponentially more of the search
    tree than the extra heuristic runs cost.
    @raise Invalid_argument when [m < p]. *)
val best : ?seed:int -> Mf_core.Instance.t -> Mf_core.Mapping.t * float
