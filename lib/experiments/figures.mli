(** The eight experiments of the paper's Section 7 (Figures 5-12).

    Each function runs the full grid and returns a {!Runner.figure} whose
    series can be printed with {!Report} or compared with
    {!Summary}.  Replicate counts default to the paper's (30 per point, 100
    for Fig. 9) and can be lowered for quick runs.

    Instance parameters follow Section 7: [w ~ U[100,1000)] ms and
    [f ~ U[0.005,0.02)] unless the figure says otherwise.

    Every function takes [?pool], forwarded to {!Runner.run} (serial in
    the calling domain without one); figures are identical with or
    without a pool, whatever its size. *)

(** Specialized mappings, m=50, p=5, n=50..150, all six heuristics. *)
val fig5 : ?replicates:int -> ?pool:Mf_parallel.Pool.t -> unit -> Runner.figure

(** Specialized mappings, m=10, p=2, n=10..100; H2, H3, H4, H4w. *)
val fig6 : ?replicates:int -> ?pool:Mf_parallel.Pool.t -> unit -> Runner.figure

(** Large platform, m=100, p=5, n=100..200; H2, H3, H4w. *)
val fig7 : ?replicates:int -> ?pool:Mf_parallel.Pool.t -> unit -> Runner.figure

(** High failure rates (f up to 10%), m=10, p=5, n=10..100, all six. *)
val fig8 : ?replicates:int -> ?pool:Mf_parallel.Pool.t -> unit -> Runner.figure

(** One-to-one regime: m=n=100, task-attached failures, p=20..100;
    H2, H3, H4w against the optimal one-to-one mapping (OtO). *)
val fig9 : ?replicates:int -> ?pool:Mf_parallel.Pool.t -> unit -> Runner.figure

(** Small instances vs the exact solver: m=5, p=2, n=2..15, all six
    heuristics plus the exact specialized optimum (labelled MIP as in the
    paper). *)
val fig10 : ?replicates:int -> ?node_budget:int -> ?pool:Mf_parallel.Pool.t -> unit -> Runner.figure

(** Fig. 10 data normalised per instance by the exact optimum. *)
val fig11 : ?replicates:int -> ?node_budget:int -> ?pool:Mf_parallel.Pool.t -> unit -> Runner.figure

(** Larger exact comparison: m=9, p=4, n=5..20; H2, H3, H4, H4w + exact
    with a node budget (the exact column loses replicates on large n, as
    the paper's MIP does past 15 tasks). *)
val fig12 : ?replicates:int -> ?node_budget:int -> ?pool:Mf_parallel.Pool.t -> unit -> Runner.figure

(** The dynamic experiment (not in the paper): effective period —
    measurement window / outputs — of the H4w mapping under per-machine
    breakdowns (uniform law, mtbf 48 periods, mttr 16 periods, one
    repair crew), left static vs re-mapped online, against the
    availability-adjusted analytic bound.  m=6, p=2, n=10..40, over a
    horizon of 600 periods.  Identical with or without a pool, like
    every figure. *)
val dynamic : ?replicates:int -> ?pool:Mf_parallel.Pool.t -> unit -> Runner.figure

(** All eight paper figures plus [dynamic], in order. *)
val all :
  ?replicates:int ->
  ?node_budget:int ->
  ?pool:Mf_parallel.Pool.t ->
  unit ->
  (string * (unit -> Runner.figure)) list
