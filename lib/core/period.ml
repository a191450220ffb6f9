let machine_periods_with_x inst mp xs =
  let m = Instance.machines inst in
  let acc = Array.init m (fun _ -> Mf_numeric.Kahan.create ()) in
  for i = 0 to Instance.task_count inst - 1 do
    let u = Mapping.machine mp i in
    Mf_numeric.Kahan.add acc.(u) (xs.(i) *. Instance.w inst i u)
  done;
  Array.map Mf_numeric.Kahan.total acc

let machine_periods inst mp = machine_periods_with_x inst mp (Products.x inst mp)

let period inst mp = Array.fold_left Float.max 0.0 (machine_periods inst mp)
let throughput inst mp = 1.0 /. period inst mp

let critical_machines inst mp =
  let periods = machine_periods inst mp in
  let best = Array.fold_left Float.max 0.0 periods in
  let tol = best *. 1e-9 in
  List.filter
    (fun u -> periods.(u) >= best -. tol)
    (List.init (Instance.machines inst) Fun.id)

let period_exact inst mp =
  let module R = Mf_numeric.Rat in
  let xs = Products.x_exact inst mp in
  let m = Instance.machines inst in
  let sums = Array.make m R.zero in
  for i = 0 to Instance.task_count inst - 1 do
    let u = Mapping.machine mp i in
    sums.(u) <- R.add sums.(u) (R.mul xs.(i) (R.of_float (Instance.w inst i u)))
  done;
  Array.fold_left R.max R.zero sums

let with_setup inst mp ~setup =
  if setup < 0.0 then invalid_arg "Period.with_setup: negative setup time";
  let m = Instance.machines inst in
  let wf = Instance.workflow inst in
  let periods = machine_periods inst mp in
  let worst = ref 0.0 in
  for u = 0 to m - 1 do
    let types =
      List.sort_uniq Stdlib.compare
        (List.map (Workflow.ttype wf) (Mapping.tasks_on mp ~u))
    in
    (* Cyclic steady state: a machine serving k >= 2 distinct types cycles
       through them and back to the first every period — k switches, not
       k-1 (the one-pass count, which forgets the switch closing the
       cycle).  Dfs's general-rule search charges the same convention. *)
    let k = List.length types in
    let reconfigurations = if k >= 2 then k else 0 in
    worst := Float.max !worst (periods.(u) +. (float_of_int reconfigurations *. setup))
  done;
  !worst
