(** Replicated experiment machinery.

    Every point of every figure in the paper is the average of 30 (or 100)
    independent random instances.  The runner pairs algorithms on the same
    instances (as the paper does), derives instance seeds deterministically
    from (figure id, x value, replicate index), and records raw
    per-replicate periods so normalised figures (Fig. 11) can take
    per-instance ratios. *)

(** An algorithm entry: solves an instance, returning the achieved period,
    or [None] on failure (e.g. the exact solver's node budget, matching the
    MIP dropping out in the paper's Fig. 12). *)
type algo = {
  label : string;
  solve : Mf_core.Instance.t -> seed:int -> float option;
}

(** Results of one algorithm at one x value. *)
type cell = {
  label : string;
  values : float option array;
      (** one slot per replicate, [None] on failure; slots align across
          algorithms so normalised figures can take per-instance ratios *)
  successes : int;
  trials : int;
}

type point = { x : int; cells : cell list }

type figure = {
  id : string;  (** e.g. "fig5" *)
  title : string;
  x_label : string;
  points : point list;
  notes : string list;
}

(** [heuristic h] wraps a paper heuristic. *)
val heuristic : Mf_heuristics.Registry.t -> algo

(** [oto_bottleneck] wraps the optimal one-to-one solver for task-attached
    failures (the "OtO" curve of Fig. 9). *)
val oto_bottleneck : algo

(** [exact_dfs ~node_budget] wraps the exact specialized solver; fails
    (returns [None]) when the budget is exhausted before proving
    optimality — reproducing the MIP's behaviour on large instances. *)
val exact_dfs : node_budget:int -> algo

(** [run ~id ~title ~x_label ~xs ~replicates ~gen ~algos ()] runs the full
    grid.  [gen] receives the x value and a derived seed and must return
    the instance.

    The unit of parallel work is one [(x, replicate)] pair: the instance
    is generated {e once} and solved by every algorithm in registration
    order (the old per-(algorithm, replicate) fan-out regenerated each
    instance [algos] times), and the whole grid goes out as a single
    batch so the pool can amortise synchronisation over coarse chunks.
    Each unit derives its own seed from [(id, x, rep)], so the returned
    figure is {e identical} — same floats, same order — with or without
    a [pool] and for any [chunk] value; [gen] and the algorithms must be
    pure functions of their arguments (all of this repository's are).

    [pool] runs the grid on that pool (the CLI and the bench pass
    {!Mf_parallel.Pool.shared}, amortized across figures); without one
    it runs serially in the calling domain.  [chunk] is passed through
    to {!Mf_parallel.Pool.map_array}. *)
val run :
  id:string ->
  title:string ->
  x_label:string ->
  ?notes:string list ->
  ?pool:Mf_parallel.Pool.t ->
  ?chunk:int ->
  xs:int list ->
  replicates:int ->
  gen:(x:int -> seed:int -> Mf_core.Instance.t) ->
  algos:algo list ->
  unit ->
  figure

(** [derive_seed ~id ~x ~rep] is the deterministic instance seed used by
    {!run} (exposed for tests): the figure id's length and bytes, then [x]
    and [rep], absorbed through successive Splitmix64 finalisations —
    collision-free on the paper's grids and stable across OCaml versions,
    unlike the [Hashtbl.hash]-based derivation it replaces. *)
val derive_seed : id:string -> x:int -> rep:int -> int

(** [mean cell] is the mean period of successful replicates ([nan] when
    none succeeded). *)
val mean : cell -> float

(** [successful cell] extracts the successful periods. *)
val successful : cell -> float array

(** [find_cell point label] looks up an algorithm's cell at a point. *)
val find_cell : point -> string -> cell option
