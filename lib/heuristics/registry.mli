(** The catalogue of specialized-mapping heuristics, keyed by the paper's
    names.

    {b Determinism contract.}  Every entry is a pure function of
    [(heuristic, instance, seed)]: same arguments, same mapping, on any
    machine and for any [--jobs] value of the surrounding run.  [seed]
    feeds the random draws of the randomized heuristics — today only H1;
    the informed heuristics H2..H4f ignore it — and defaults to
    {!default_seed} everywhere, so omitting it is itself deterministic.
    {!solve} and {!best} treat [seed] identically: [best] threads the
    caller's seed to {e every} catalogue entry (a caller-supplied seed is
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

(** [best ?seed inst] runs {e every} heuristic of {!all} — each with the
    same [seed] — and returns the mapping with the smallest period
    together with that period.  Ties keep the earliest heuristic in the
    catalogue order, so the result is deterministic.  This is the
    incumbent seed of the exact branch-and-bound: a tighter initial
    incumbent prunes exponentially more of the search tree than the cost
    of the extra heuristic runs.
    @raise Invalid_argument when [m < p]. *)
val best : ?seed:int -> Mf_core.Instance.t -> Mf_core.Mapping.t * float
