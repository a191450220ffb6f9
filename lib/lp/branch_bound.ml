module Heap = Mf_structures.Binary_heap

type status = Optimal | Feasible | Infeasible | Unbounded | Unknown

type result = {
  status : status;
  solution : float array option;
  objective : float option;
  nodes : int;
}

type node = { bound : float; lo : float array; hi : float array }

(* An integer variable within this distance of an integer counts as
   integral. *)
let int_tol = 1e-6

(* All bounding happens in minimization space; [Standardize.model_objective]
   converts back only for the final report. *)
let solve ?(node_budget = 200_000) model =
  let nvars = Model.var_count model in
  let int_vars = Model.integer_vars model in
  let root_lo = Array.init nvars (Model.var_lo model) in
  let root_hi = Array.init nvars (Model.var_hi model) in
  let relax ~lo ~hi =
    let module FS = Simplex.Float_solver in
    let module RS = Simplex.Rat_solver in
    match Standardize.build ~lo ~hi model with
    | None -> `Infeasible
    | Some std -> (
      let d =
        FS.solve_sparse_detailed ~a:std.Standardize.a ~b:std.Standardize.b
          ~c:std.Standardize.c ()
      in
      match d.FS.outcome with
      | FS.Infeasible -> `Infeasible
      | FS.Unbounded -> `Unbounded
      | FS.Optimal (x, obj) ->
        `Optimal (std.Standardize.recover x, obj +. std.Standardize.obj_offset)
      | FS.Stalled -> (
        (* An exhausted pivot budget must neither loop nor prune unsoundly:
           certify the node exactly, warm-started from the float basis. *)
        let module R = Mf_numeric.Rat in
        let rd =
          Mip.certify ~basis:d.FS.basis ~a:std.Standardize.a ~b:std.Standardize.b
            ~c:std.Standardize.c ()
        in
        match rd.RS.outcome with
        | RS.Infeasible -> `Infeasible
        | RS.Unbounded -> `Unbounded
        | RS.Optimal (x, obj) ->
          `Optimal
            ( std.Standardize.recover (Array.map R.to_float x),
              R.to_float obj +. std.Standardize.obj_offset )
        | RS.Stalled -> assert false))
  in
  let most_fractional x =
    let best = ref None in
    List.iter
      (fun v ->
        let frac = Float.abs (x.(v) -. Float.round x.(v)) in
        if frac > int_tol then
          match !best with
          | Some (_, bf) when bf >= frac -> ()
          | _ -> best := Some (v, frac))
      int_vars;
    Option.map fst !best
  in
  let incumbent = ref None in
  let incumbent_obj = ref infinity in
  let nodes = ref 0 in
  let frontier = Heap.create ~cmp:(fun a b -> Float.compare a.bound b.bound) in
  match relax ~lo:root_lo ~hi:root_hi with
  | `Infeasible -> { status = Infeasible; solution = None; objective = None; nodes = 1 }
  | `Unbounded -> { status = Unbounded; solution = None; objective = None; nodes = 1 }
  | `Optimal (x0, obj0) ->
    let budget_hit = ref false in
    let process x obj ~lo ~hi =
      if obj < !incumbent_obj then begin
        match most_fractional x with
        | None ->
          incumbent := Some x;
          incumbent_obj := obj
        | Some v ->
          let child base value =
            Heap.push frontier { bound = obj; lo = fst (base value); hi = snd (base value) }
          in
          let down _ =
            let hi' = Array.copy hi in
            hi'.(v) <- Float.of_int (int_of_float (Float.floor (x.(v) +. int_tol)));
            (Array.copy lo, hi')
          in
          let up _ =
            let lo' = Array.copy lo in
            lo'.(v) <- Float.of_int (int_of_float (Float.ceil (x.(v) -. int_tol)));
            (lo', Array.copy hi)
          in
          child down ();
          child up ()
      end
    in
    incr nodes;
    process x0 obj0 ~lo:root_lo ~hi:root_hi;
    let continue = ref true in
    while !continue do
      match Heap.pop frontier with
      | None -> continue := false
      | Some node ->
        if node.bound >= !incumbent_obj -. 1e-12 then
          (* Best-first order: every remaining node is dominated too. *)
          continue := false
        else if !nodes >= node_budget then begin
          budget_hit := true;
          continue := false
        end
        else begin
          incr nodes;
          match relax ~lo:node.lo ~hi:node.hi with
          | `Infeasible -> ()
          | `Unbounded ->
            (* A bounded parent cannot spawn an unbounded child; treat it
               defensively as a dead end. *)
            ()
          | `Optimal (x, obj) -> process x obj ~lo:node.lo ~hi:node.hi
        end
    done;
    let finalize min_obj =
      (* Convert from minimization space back to the model's objective. *)
      let minimize, _ = Model.objective model in
      if minimize then min_obj else -.min_obj
    in
    (match !incumbent with
    | Some x ->
      (* Snap integers to exact values for downstream consumers. *)
      List.iter (fun v -> x.(v) <- Float.round x.(v)) int_vars;
      let status = if !budget_hit then Feasible else Optimal in
      { status; solution = Some x; objective = Some (finalize !incumbent_obj); nodes = !nodes }
    | None ->
      let status = if !budget_hit then Unknown else Infeasible in
      { status; solution = None; objective = None; nodes = !nodes })
