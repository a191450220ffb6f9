(** The cross-solver oracle matrix.

    Each oracle packages a generator, a property and a counterexample
    printer behind an existential, so the fuzz driver can run the whole
    matrix uniformly, replay single cases from a corpus seed, and report
    shrunk counterexamples as replayable text.

    The matrix (see DESIGN.md section 12):

    - [eval] — {!Mf_eval.State} under random committed move/swap
      sequences against from-scratch {!Mf_core.Period.period} and the
      exact-rational {!Mf_core.Period.period_exact}, and a reload of the
      start mapping restoring its period bit-for-bit;
    - [heuristics] — every {!Mf_heuristics.Registry} algorithm returns a
      rule-feasible mapping whose period matches reference evaluation;
    - [exact-vs-brute] — {!Mf_exact.Dfs.solve} equals {!Mf_exact.Brute}
      under all three mapping rules on small instances;
    - [lp-vs-exact] — the float simplex closes every {!Mf_lp.Splitting}
      LP without the rational fallback, agrees with a cold exact-rational
      solve to rel 1e-6, and the bound never exceeds the exact optimum;
    - [warm-start] — {!Mf_lp.Simplex.S.solve_sparse_from_basis}
      from a random, the all-artificial, or a perturbed copy's optimal
      basis agrees with the cold solve, float and exact-rational (see
      {!warm_start_case});
    - [sim-vs-analytic] — {!Mf_sim.Desim.run} throughput and per-task
      loss rates stay inside z = 6 confidence bands around the analytic
      values (false-positive probability < 1e-9 per check; deterministic
      under fixed seeds);
    - [sim-breakdowns] — the dynamic model under per-machine dyadic
      MTBF/MTTR laws: throughput within a z = 6 band of the
      availability-adjusted [min avail(u) / load(u)], breakdown counts
      Poisson in measured busy time, downtime within a Gamma band of
      [count . mttr] (exactly zero for instant repairs), and the loss
      bands re-checked to pin breakdown/loss RNG stream independence;
    - [remap-safety] — the online re-mapper driven by generated
      breakdown/repair scripts: committed mappings stay feasible over
      the surviving machines and specialized, claimed periods match
      from-scratch evaluation and never worsen the do-nothing
      incumbent, infeasibility verdicts are honest, replaying every
      committed move on one {!Mf_eval.State} reaches the live mapping and
      its period, and reloading the original mapping restores its period
      bit-for-bit;
    - [metamorphic] — machine-permutation invariance (bit-exact, plus
      {!Mf_exact.Symmetry.machine_classes} consistency), power-of-two
      workload scaling (bit-exact), and failure-rate monotonicity;
    - [cache] — warming the {!Mf_solve.Cache} with a near-duplicate
      instance (machines permuted, type labels relabeled) makes the
      original request hit, and the mapped-back cached answer is
      bit-identical to a fresh no-cache {!Mf_solve.Portfolio} solve
      (status, period bits, bound bits, mapping, engine trail). *)

type outcome = {
  oracle : string;
  cases : int;  (** cases executed (including the failing one, if any) *)
  failed : failed option;
}

and failed = {
  case_index : int;
  case_seed : int;  (** replay key: regenerates the unshrunk case *)
  shrink_steps : int;
  message : string;
  repr : string;  (** printed shrunk counterexample *)
}

type t

val name : t -> string
val description : t -> string

(** Cases per oracle in the quick (CI) tier. *)
val quick_cases : t -> int

(** The oracle matrix, in reporting order. *)
val all : t list

(** [find name] looks an oracle up by exact name. *)
val find : string -> t option

(** [run ?count ~seed o] runs [o] on [count] cases (default
    [quick_cases o]) derived deterministically from [seed], shrinking the
    first failure. *)
val run : ?count:int -> seed:int -> t -> outcome

(** [replay o ~case_seed] re-executes exactly one case — the one a
    corpus or repro file recorded — without shrinking on success. *)
val replay : t -> case_seed:int -> outcome

(** [warm_start_case ~instance ~start ~seed] runs one case of the
    [warm-start] oracle on {!Instances.lp_differential_instance}
    [instance], starting {!Mf_lp.Simplex.S.solve_sparse_from_basis}
    from a basis of kind [start]: [0] distinct column ids drawn from
    [seed], [1] the all-artificial basis, [2] the float optimal basis
    of a copy perturbed from [seed].  Float and rational warm solves
    must reach the cold solve's verdict and objective (rel 1e-9 and
    exactly), return a basis of distinct real column ids (never the
    auxiliary x0), and the rational one must not restart.  Shared with
    the [simplex] group of the LP test suite. *)
val warm_start_case : instance:int -> start:int -> seed:int -> (unit, string) result

(** The canary: a deliberately broken period evaluation (the success
    probability sign flipped in a local copy of the product-count
    recurrence, [1/(1+f)] instead of [1/(1-f)]).  Running it must produce
    a failure and shrink it to a tiny repro — the self-test that the
    harness can actually catch and minimise evaluation bugs. *)
val canary : t

(** [canary_check ~seed] runs the canary and demands a failure: [Ok
    (tasks, machines)] gives the size of the shrunk repro, [Error _]
    means the harness failed to catch the injected bug. *)
val canary_check : seed:int -> (int * int, string) result

(** The dynamic-layer canary: a re-mapper whose local-search refinement
    forgets the availability filter and so re-assigns work to the dead
    (and therefore empty, maximally attractive) machine.  The
    remap-safety discipline must catch and shrink it. *)
val remap_canary : t

(** [remap_canary_check ~seed] runs {!remap_canary} and demands a
    failure, like {!canary_check}. *)
val remap_canary_check : seed:int -> (int * int, string) result
