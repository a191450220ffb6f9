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

(* The rational copy of a float system shares the matrix's index
   arrays: only the value arrays are converted, each float exactly. *)
let certify ?basis ~a ~b ~c () =
  let module R = Mf_numeric.Rat in
  let module RS = Simplex.Rat_solver in
  let a = Sparse.map_values R.of_float a in
  let b = Array.map R.of_float b and c = Array.map R.of_float c in
  match basis with
  | Some basis -> RS.solve_sparse_from_basis ~a ~b ~c ~basis ()
  | None -> RS.solve_sparse_detailed ~a ~b ~c ()
