type path = [ `Float | `Rational ]

type certified_stats = {
  float_iterations : int;
  exact_iterations : int;
  factorizations : int;
  eta_updates : int;
  refactorizations : int;
  path : path;
}

let zero_stats =
  {
    float_iterations = 0;
    exact_iterations = 0;
    factorizations = 0;
    eta_updates = 0;
    refactorizations = 0;
    path = `Float;
  }

let solve_relaxation model =
  match Standardize.build model with
  | None -> `Infeasible
  | Some std -> (
    match
      Simplex.Float_solver.solve_sparse ~a:std.Standardize.a ~b:std.Standardize.b
        ~c:std.Standardize.c
    with
    | Simplex.Float_solver.Infeasible -> `Infeasible
    | Simplex.Float_solver.Unbounded -> `Unbounded
    | Simplex.Float_solver.Stalled -> `Stalled
    | Simplex.Float_solver.Optimal (x, obj) ->
      `Optimal (std.Standardize.recover x, Standardize.model_objective std obj))

(* The rational copy of a standardized system shares the float matrix's
   index arrays: only the value array is converted. *)
let rat_of_std std =
  let module R = Mf_numeric.Rat in
  ( Sparse.map_values R.of_float std.Standardize.a,
    Array.map R.of_float std.Standardize.b,
    Array.map R.of_float std.Standardize.c )

let solve_relaxation_exact model =
  match Standardize.build model with
  | None -> `Infeasible
  | Some std ->
    let module R = Mf_numeric.Rat in
    let a, b, c = rat_of_std std in
    (match Simplex.Rat_solver.solve_sparse ~a ~b ~c with
    | Simplex.Rat_solver.Infeasible -> `Infeasible
    | Simplex.Rat_solver.Unbounded -> `Unbounded
    | Simplex.Rat_solver.Stalled ->
      (* The exact instance runs with an unlimited pivot budget. *)
      assert false
    | Simplex.Rat_solver.Optimal (x, obj) ->
      let xf = Array.map R.to_float x in
      `Optimal (std.Standardize.recover xf, Standardize.model_objective std (R.to_float obj)))

let solve_relaxation_certified model =
  let module FS = Simplex.Float_solver in
  let module RS = Simplex.Rat_solver in
  let module R = Mf_numeric.Rat in
  match Standardize.build model with
  | None -> (`Infeasible, zero_stats)
  | Some std -> (
    let d =
      FS.solve_sparse_detailed ~a:std.Standardize.a ~b:std.Standardize.b
        ~c:std.Standardize.c ()
    in
    match d.FS.outcome with
    | FS.Optimal (x, obj) ->
      ( `Optimal (std.Standardize.recover x, Standardize.model_objective std obj),
        {
          float_iterations = d.FS.iterations;
          exact_iterations = 0;
          factorizations = d.FS.factorizations;
          eta_updates = d.FS.eta_updates;
          refactorizations = d.FS.refactorizations;
          path = `Float;
        } )
    | FS.Infeasible | FS.Unbounded | FS.Stalled ->
      (* The float path failed (or lied): certify with the exact solver,
         warm-started from the float basis.  The basis is repaired where
         it is singular; phase 2 runs straight away when the repaired
         basis is feasible, and otherwise phase 1 runs from it — never a
         cold restart of the dominant rational cost. *)
      let a, b, c = rat_of_std std in
      let rd = RS.solve_sparse_from_basis ~a ~b ~c ~basis:d.FS.basis () in
      let stats =
        {
          float_iterations = d.FS.iterations;
          exact_iterations = rd.RS.iterations;
          factorizations = d.FS.factorizations + rd.RS.factorizations;
          eta_updates = d.FS.eta_updates + rd.RS.eta_updates;
          refactorizations = d.FS.refactorizations + rd.RS.refactorizations;
          path = `Rational;
        }
      in
      (match rd.RS.outcome with
      | RS.Optimal (x, obj) ->
        let xf = Array.map R.to_float x in
        ( `Optimal (std.Standardize.recover xf, Standardize.model_objective std (R.to_float obj)),
          stats )
      | RS.Infeasible -> (`Infeasible, stats)
      | RS.Unbounded -> (`Unbounded, stats)
      | RS.Stalled -> assert false))
