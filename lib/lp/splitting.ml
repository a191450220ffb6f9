module Instance = Mf_core.Instance
module Workflow = Mf_core.Workflow
module Mapping = Mf_core.Mapping
module Period = Mf_core.Period
module FS = Simplex.Float_solver
module RS = Simplex.Rat_solver

type prefix = {
  committed : bool array;
  x : float array;
  load : float array;
  allowed : int -> int -> bool;
}

type lp = { a : float Sparse.repr; b : float array; c : float array }

(* The layout and the entry order are stated in splitting.mli.  The
   order is part of the contract: the solver's dot products follow it,
   so it fixes every float the LP computes, at the root and at every
   search node alike. *)
let build ?prefix inst =
  let n = Instance.task_count inst and m = Instance.machines inst in
  let wf = Instance.workflow inst in
  let p =
    match prefix with
    | Some p -> p
    | None ->
      {
        committed = Array.make n false;
        x = [||];
        load = Array.make m 0.0;
        allowed = (fun _ _ -> true);
      }
  in
  (* slot.(i): flow row and column block of uncommitted task [i] *)
  let slot = Array.make n (-1) in
  let nu = ref 0 in
  for i = 0 to n - 1 do
    if not p.committed.(i) then begin
      slot.(i) <- !nu;
      incr nu
    end
  done;
  let nu = !nu in
  let rows = nu + m and cols = (nu * m) + 1 + m in
  let columns = Array.make cols [] in
  let rho = ref [] in
  for u = m - 1 downto 0 do
    if p.load.(u) > 0.0 then rho := (nu + u, p.load.(u)) :: !rho
  done;
  for i = n - 1 downto 0 do
    let s = slot.(i) in
    if s >= 0 then begin
      let preds =
        List.filter_map
          (fun q -> if p.committed.(q) then None else Some (slot.(q), -1.0))
          (Workflow.predecessors wf i)
      in
      for u = 0 to m - 1 do
        if p.allowed i u then
          columns.((s * m) + u) <-
            (s, 1.0 -. Instance.f inst i u) :: (nu + u, Instance.w inst i u) :: preds
      done;
      match Workflow.successor wf i with
      | None -> rho := (s, -1.0) :: !rho
      | Some j when p.committed.(j) -> rho := (s, -.p.x.(j)) :: !rho
      | Some _ -> ()
    end
  done;
  columns.(nu * m) <- !rho;
  for u = 0 to m - 1 do
    columns.((nu * m) + 1 + u) <- [ (nu + u, 1.0) ]
  done;
  let c = Array.make cols 0.0 in
  c.(nu * m) <- -1.0;
  {
    a = Sparse.Float_csc.of_columns ~rows ~cols columns;
    b = Array.init rows (fun r -> if r < nu then 0.0 else 1.0);
    c;
  }

type result = {
  period : float;
  shares : float array array;
  loads : float array;
  stats : Mip.certified_stats;
}

type error = [ `Infeasible | `Unbounded ]

let describe_error = function
  | `Infeasible -> "LP reported infeasible"
  | `Unbounded -> "LP reported unbounded"

let solve inst =
  let n = Instance.task_count inst in
  let m = Instance.machines inst in
  let { a; b; c } = build inst in
  let d = FS.solve_sparse_detailed ~a ~b ~c () in
  let stats =
    {
      Mip.float_iterations = d.FS.iterations;
      exact_iterations = 0;
      factorizations = d.FS.factorizations;
      eta_updates = d.FS.eta_updates;
      refactorizations = d.FS.refactorizations;
      path = `Float;
    }
  in
  let verdict, stats =
    match d.FS.outcome with
    | FS.Optimal (y, obj) -> (`Optimal (y, -.obj), stats)
    | FS.Infeasible | FS.Unbounded | FS.Stalled ->
      (* The LP is feasible and bounded, so a float failure is numerical:
         certify it, warm-started from the float basis.  That verdict is
         final. *)
      let rd = Mip.certify ~basis:d.FS.basis ~a ~b ~c () in
      let stats =
        {
          stats with
          exact_iterations = rd.RS.iterations;
          factorizations = stats.factorizations + rd.RS.factorizations;
          eta_updates = stats.eta_updates + rd.RS.eta_updates;
          refactorizations = stats.refactorizations + rd.RS.refactorizations;
          path = `Rational;
        }
      in
      let module R = Mf_numeric.Rat in
      ( (match rd.RS.outcome with
        | RS.Optimal (y, obj) -> `Optimal (Array.map R.to_float y, -.R.to_float obj)
        | RS.Infeasible -> `Infeasible
        | RS.Unbounded -> `Unbounded
        | RS.Stalled -> assert false),
        stats )
  in
  match verdict with
  | `Infeasible -> Error `Infeasible
  | `Unbounded -> Error `Unbounded
  | `Optimal (_, rho) when rho <= 0.0 ->
    (* Zero throughput cannot happen for a well-formed instance (w > 0,
       f < 1 guarantee a positive-rate schedule); keep the function
       total anyway. *)
    Error `Infeasible
  | `Optimal (y, rho) ->
    let period = 1.0 /. rho in
    (* Back to period-form product counts: x = y / rho. *)
    let counts = Array.init n (fun i -> Array.init m (fun u -> y.((i * m) + u) /. rho)) in
    let shares =
      Array.map
        (fun row ->
          let total = Array.fold_left ( +. ) 0.0 row in
          if total <= 0.0 then Array.map (fun _ -> 0.0) row
          else Array.map (fun v -> v /. total) row)
        counts
    in
    let loads =
      Array.init m (fun u ->
          let acc = ref 0.0 in
          for i = 0 to n - 1 do
            acc := !acc +. (counts.(i).(u) *. Instance.w inst i u)
          done;
          !acc)
    in
    Ok { period; shares; loads; stats }

let solve_exact inst =
  let { a; b; c } = build inst in
  match (Mip.certify ~a ~b ~c ()).RS.outcome with
  | RS.Optimal (_, obj) when Mf_numeric.Rat.to_float obj < 0.0 ->
    Ok (1.0 /. -.Mf_numeric.Rat.to_float obj)
  | RS.Optimal _ | RS.Infeasible -> Error `Infeasible
  | RS.Unbounded -> Error `Unbounded
  | RS.Stalled -> assert false

type round_error =
  | No_specialized_mapping
  | No_eligible_machine of int

let describe_round_error = function
  | No_specialized_mapping ->
    "no specialized mapping exists (fewer machines than task types)"
  | No_eligible_machine task ->
    Printf.sprintf "task %d has no eligible machine under the specialized rule" task

exception Round_failed of round_error

let round inst r =
  try
    let eng =
      try Mf_heuristics.Engine.create inst
      with Invalid_argument _ -> raise (Round_failed No_specialized_mapping)
    in
    Array.iter
      (fun task ->
        let best = ref (-1) and best_share = ref neg_infinity in
        List.iter
          (fun u ->
            let s = r.shares.(task).(u) in
            (* Strict [>] keeps the lowest machine index among equal
               shares ([eligible_machines] lists machines in increasing
               index order), so rounding is bit-identical however the
               surrounding sweep is parallelised. *)
            if !best < 0 || s > !best_share then begin
              best := u;
              best_share := s
            end)
          (Mf_heuristics.Engine.eligible_machines eng ~task);
        if !best < 0 then raise (Round_failed (No_eligible_machine task));
        Mf_heuristics.Engine.assign eng ~task ~machine:!best)
      (Mf_heuristics.Engine.order eng);
    let mp = Mf_heuristics.Engine.mapping eng in
    Ok (mp, Period.period inst mp)
  with Round_failed e -> Error e

let round_exn inst r =
  match round inst r with
  | Ok v -> v
  | Error e -> failwith (Printf.sprintf "Splitting.round: %s" (describe_round_error e))
