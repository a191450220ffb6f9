(** The [mfoptd] request scheduler: multiplexes concurrent clients over
    one shared answer cache and (optionally) one shared
    {!Mf_parallel.Pool}.

    {b Scheduling.}  One reader thread per connection parses verb
    lines, answers a [SOLVE] the shared cache already holds
    ({!Mf_solve.Portfolio.cached}) and enqueues the others; [workers]
    threads admit queued jobs earliest-absolute-deadline-first, where
    the key is arrival time plus the budget's effective duration
    ([Deadline_ms d] adds [d] ms, [Nodes k] adds [k / nodes_per_ms] ms,
    [Unlimited] is infinity; ties by arrival).  EDF thus orders misses
    only.  Because the key is arrival-adjusted, a bounded job
    that has waited eventually outranks any stream of fresh
    short-deadline arrivals.  After {!starvation_bound} consecutive
    bounded admissions, the oldest [Unlimited] job is admitted
    regardless — the fairness guarantee for unbounded work.

    {b Determinism.}  Scheduling may reorder {e when} responses are
    written, never their contents: each solve is the in-process
    {!Mf_solve.Portfolio.solve} of its request, so an [OK] line is
    byte-identical to the line a fresh in-process solve renders (modulo
    the [cached] flag when the shared cache answers).

    {b Cancellation.}  [CANCEL id] sets the job's {!Mf_parallel.Pool}
    token: a queued job is answered [CANCELLED] without solving, a
    running one unwinds at the next branch-and-bound node poll.  A
    cache hit is never queued, so its id is already answered: a
    [CANCEL] naming it gets [ERR <id> unknown-id].  Every [SOLVE] still
    gets exactly one response ([OK] or [CANCELLED]). *)

type t

type config = { jobs : int; cache_capacity : int; workers : int }

(** [{ jobs = 1; cache_capacity = Cache.default_capacity; workers = 4 }] *)
val default_config : config

(** Bounded admissions tolerated in a row before an [Unlimited] job is
    forced through (4). *)
val starvation_bound : int

(** [create ()] starts the worker threads; [jobs > 1] runs the exact
    engine on {!Mf_parallel.Pool.shared} [~domains:jobs], clamped to the
    core count like every [--jobs] flag and shut down at process exit. *)
val create : ?config:config -> unit -> t

(** [serve_client t ic oc] runs one connection's read loop in the
    calling thread until EOF or [QUIT], draining that client's
    in-flight solves before returning.  Usable directly over a
    socketpair or stdin/stdout. *)
val serve_client : t -> in_channel -> out_channel -> unit

(** [serve_unix t ~socket_path] binds a Unix-domain listening socket
    (replacing a stale file), accepts each connection onto its own
    thread, and returns once {!request_stop} has been observed (the
    accept loop polls the stop flag every 200 ms).  The socket file is
    removed on return. *)
val serve_unix : t -> socket_path:string -> unit

(** Signal-handler safe: flips the stop flag and wakes the workers. *)
val request_stop : t -> unit

(** [shutdown t oc] stops the workers, joins them, and dumps the
    telemetry to [oc] — the SIGTERM path. *)
val shutdown : t -> out_channel -> unit

(** The [STATS] response line. *)
val stats_line : t -> string
