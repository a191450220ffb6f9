(** Conversion of a {!Model} (bounded variables, mixed relations) to the
    standard form [min c'x, Ax = b, x >= 0] expected by {!Simplex}, with a
    recovery function mapping standard solutions back to model space.

    Transformation rules per variable with (possibly overridden) bounds
    [lo, hi]:
    - finite [lo]: substitute [x = lo + y], [y >= 0]; a finite [hi] adds a
      row [y + slack = hi - lo];
    - [lo = -inf], finite [hi]: substitute [x = hi - y];
    - free: split [x = y⁺ - y⁻].

    [Le]/[Ge] constraints receive slack/surplus columns. *)

type t = {
  a : float Sparse.repr;
      (** constraint matrix in compressed-sparse-column form — the
          representation {!Simplex.S.solve_sparse_detailed} consumes
          directly, and the only one that scales to the n ~ 10^3..10^4
          throughput-form LPs (their tableaus are ~99% zeros) *)
  b : float array;
  c : float array;
  (* [recover std] maps a standard-form solution back to the model's
     variables. *)
  recover : float array -> float array;
  (* Constant to add to the standard objective to get the model objective
     in minimization space. *)
  obj_offset : float;
  (* True when the model maximizes: the model objective is the negation of
     (standard objective + offset). *)
  negated : bool;
}

(** [build ?lo ?hi model] standardises the model's LP relaxation with
    optional per-variable bound overrides.  Returns [None] when some
    variable's bounds are empty ([lo > hi]) — an infeasible
    branch-and-bound node. *)
val build : ?lo:float array -> ?hi:float array -> Model.t -> t option

(** [model_objective t std_obj] converts a standard-form objective value to
    the model's objective value. *)
val model_objective : t -> float -> float
