module Instance = Mf_core.Instance
module Workflow = Mf_core.Workflow
module Mapping = Mf_core.Mapping
module Period = Mf_core.Period

type solve_result = {
  mapping : Mf_core.Mapping.t option;
  period : float option;
  k : float option;
  status : Branch_bound.status;
  nodes : int;
}

let build inst =
  let n = Instance.task_count inst in
  let m = Instance.machines inst in
  let p = Instance.type_count inst in
  let wf = Instance.workflow inst in
  let max_x = Instance.max_x inst in
  let model = Model.create () in
  let a =
    Array.init n (fun i ->
        Array.init m (fun u ->
            Model.add_var model ~name:(Printf.sprintf "a_%d_%d" i u) Model.Binary))
  in
  let t =
    Array.init m (fun u ->
        Array.init p (fun j ->
            Model.add_var model ~name:(Printf.sprintf "t_%d_%d" u j) Model.Binary))
  in
  let x =
    Array.init n (fun i ->
        Model.add_var model ~name:(Printf.sprintf "x_%d" i) ~lo:0.0 ~hi:max_x.(i)
          Model.Continuous)
  in
  let y =
    Array.init n (fun i ->
        Array.init m (fun u ->
            Model.add_var model
              ~name:(Printf.sprintf "y_%d_%d" i u)
              ~lo:0.0 ~hi:max_x.(i) Model.Continuous))
  in
  let k = Model.add_var model ~name:"K" ~lo:0.0 Model.Continuous in
  (* (3) each task on exactly one machine. *)
  for i = 0 to n - 1 do
    let expr = Linexpr.of_terms (List.init m (fun u -> (1.0, a.(i).(u)))) 0.0 in
    Model.add_constraint model ~name:(Printf.sprintf "one_machine_%d" i) expr Model.Eq 1.0
  done;
  (* (4) each machine dedicated to at most one type. *)
  for u = 0 to m - 1 do
    let expr = Linexpr.of_terms (List.init p (fun j -> (1.0, t.(u).(j)))) 0.0 in
    Model.add_constraint model ~name:(Printf.sprintf "one_type_%d" u) expr Model.Le 1.0
  done;
  (* (5) a task may only run on a machine specialized to its type. *)
  for i = 0 to n - 1 do
    let ty = Workflow.ttype wf i in
    for u = 0 to m - 1 do
      let expr = Linexpr.sub (Linexpr.var a.(i).(u)) (Linexpr.var t.(u).(ty)) in
      Model.add_constraint model ~name:(Printf.sprintf "spec_%d_%d" i u) expr Model.Le 0.0
    done
  done;
  (* (6) product counts: x_i >= F(i,u) * x_succ(i) - (1 - a(i,u)) MAXx_i. *)
  for i = 0 to n - 1 do
    for u = 0 to m - 1 do
      let factor = 1.0 /. (1.0 -. Instance.f inst i u) in
      let lhs =
        match Workflow.successor wf i with
        | Some s ->
          (* x_i - F*x_s - MAXx_i*a(i,u) >= -MAXx_i *)
          Linexpr.sub
            (Linexpr.sub (Linexpr.var x.(i)) (Linexpr.var ~coeff:factor x.(s)))
            (Linexpr.var ~coeff:max_x.(i) a.(i).(u))
        | None ->
          (* x_i - MAXx_i*a(i,u) >= F - MAXx_i  (virtual successor count 1) *)
          Linexpr.sub
            (Linexpr.sub (Linexpr.var x.(i)) (Linexpr.const factor))
            (Linexpr.var ~coeff:max_x.(i) a.(i).(u))
      in
      Model.add_constraint model ~name:(Printf.sprintf "count_%d_%d" i u) lhs Model.Ge
        (-.max_x.(i))
    done
  done;
  (* (7) machine periods bounded by K. *)
  for u = 0 to m - 1 do
    let expr =
      Linexpr.sub
        (Linexpr.of_terms (List.init n (fun i -> (Instance.w inst i u, y.(i).(u)))) 0.0)
        (Linexpr.var k)
    in
    Model.add_constraint model ~name:(Printf.sprintf "period_%d" u) expr Model.Le 0.0
  done;
  (* (8) y(i,u) linearises a(i,u) * x_i. *)
  for i = 0 to n - 1 do
    for u = 0 to m - 1 do
      Model.add_constraint model
        ~name:(Printf.sprintf "y_ub_a_%d_%d" i u)
        (Linexpr.sub (Linexpr.var y.(i).(u)) (Linexpr.var ~coeff:max_x.(i) a.(i).(u)))
        Model.Le 0.0;
      Model.add_constraint model
        ~name:(Printf.sprintf "y_ub_x_%d_%d" i u)
        (Linexpr.sub (Linexpr.var y.(i).(u)) (Linexpr.var x.(i)))
        Model.Le 0.0;
      Model.add_constraint model
        ~name:(Printf.sprintf "y_lb_%d_%d" i u)
        (Linexpr.sub
           (Linexpr.sub (Linexpr.var y.(i).(u)) (Linexpr.var x.(i)))
           (Linexpr.var ~coeff:max_x.(i) a.(i).(u)))
        Model.Ge (-.max_x.(i))
    done
  done;
  Model.set_objective model ~minimize:true (Linexpr.var k);
  (model, (a, t, x, y, k))

let solve ?node_budget inst =
  let model, (a, _, _, _, kvar) = build inst in
  let r = Branch_bound.solve ?node_budget model in
  match r.Branch_bound.solution with
  | None ->
    {
      mapping = None;
      period = None;
      k = None;
      status = r.Branch_bound.status;
      nodes = r.Branch_bound.nodes;
    }
  | Some sol ->
    let n = Instance.task_count inst in
    let m = Instance.machines inst in
    let alloc =
      Array.init n (fun i ->
          let best = ref 0 in
          for u = 1 to m - 1 do
            if sol.(a.(i).(u)) > sol.(a.(i).(!best)) then best := u
          done;
          !best)
    in
    let mp = Mapping.of_array inst alloc in
    {
      mapping = Some mp;
      period = Some (Period.period inst mp);
      k = Some sol.(kvar);
      status = r.Branch_bound.status;
      nodes = r.Branch_bound.nodes;
    }
