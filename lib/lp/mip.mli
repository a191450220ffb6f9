(** LP-relaxation entry points: the continuous relaxation of a {!Model}
    solved by the float simplex, by the exact-rational one, or by the
    float one with exact-rational certification of its failures.
    Integer models are solved by {!Branch_bound}. *)

(** Which solver produced a certified answer: the float simplex alone,
    or the exact-rational fallback it warm-started. *)
type path = [ `Float | `Rational ]

type certified_stats = {
  float_iterations : int;  (** pivots of the float attempt *)
  exact_iterations : int;  (** pivots of the rational fallback (0 on the float path) *)
  factorizations : int;
      (** LU basis factorisations across both attempts (revised simplex) *)
  eta_updates : int;
      (** basis exchanges absorbed by product-form eta updates — the
          cheap path; the ratio of [eta_updates] to [factorizations]
          is the basis-reuse rate *)
  refactorizations : int;
      (** factorisations forced mid-solve by the eta cap, fill growth,
          or a refused eta pivot *)
  path : path;
}

(** All-zero stats record, the identity for aggregation. *)
val zero_stats : certified_stats

(** [solve_relaxation model] solves the continuous relaxation with the
    float simplex only.  Returns the model-space solution and objective.
    [`Stalled] reports an exhausted pivot budget (see
    {!Simplex.S.outcome}); callers that must not fail should use
    {!solve_relaxation_certified} instead. *)
val solve_relaxation :
  Model.t -> [ `Optimal of float array * float | `Infeasible | `Unbounded | `Stalled ]

(** [solve_relaxation_exact model] solves the relaxation with the
    exact-rational simplex from scratch — slower, bit-exact; used to
    validate the float path. *)
val solve_relaxation_exact :
  Model.t -> [ `Optimal of float array * float | `Infeasible | `Unbounded ]

(** [solve_relaxation_certified model] is {!solve_relaxation} with the
    failure modes removed: when the float path reports [`Infeasible],
    [`Unbounded] or [`Stalled], the relaxation is re-solved by the
    exact-rational simplex warm-started from the float solver's final
    basis, and that verdict is final.  The stats record which path
    produced the answer and how many pivots each solver spent. *)
val solve_relaxation_certified :
  Model.t ->
  [ `Optimal of float array * float | `Infeasible | `Unbounded ] * certified_stats
