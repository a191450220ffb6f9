type t = {
  workflow : Workflow.t;
  machines : int;
  w : float array array;
  f : float array array;
}

let create ~workflow ~machines ~w ~f =
  let n = Workflow.task_count workflow in
  if machines <= 0 then invalid_arg "Instance: need at least one machine";
  let check_matrix name mat =
    if Array.length mat <> n then
      invalid_arg (Printf.sprintf "Instance: %s must have one row per task" name);
    Array.iter
      (fun row ->
        if Array.length row <> machines then
          invalid_arg (Printf.sprintf "Instance: %s must have one column per machine" name))
      mat
  in
  check_matrix "w" w;
  check_matrix "f" f;
  Array.iter
    (Array.iter (fun v ->
         if not (Float.is_finite v) || v <= 0.0 then
           invalid_arg "Instance: processing times must be positive and finite"))
    w;
  Array.iter
    (Array.iter (fun v ->
         if not (Float.is_finite v) || v < 0.0 || v >= 1.0 then
           invalid_arg "Instance: failure probabilities must lie in [0, 1)"))
    f;
  (* Type consistency of w: tasks of equal type share a row. *)
  let rep = Array.make (Workflow.type_count workflow) (-1) in
  for i = 0 to n - 1 do
    let ty = Workflow.ttype workflow i in
    if rep.(ty) < 0 then rep.(ty) <- i
    else if w.(i) <> w.(rep.(ty)) then
      invalid_arg "Instance: tasks of the same type must share processing times"
  done;
  (* -0.0 passes the range check but has other bits than 0.0: store
     +0.0 so that equal instances are equal bit for bit (Canon's key). *)
  {
    workflow;
    machines;
    w = Array.map Array.copy w;
    f = Array.map (Array.map (fun v -> if v = 0.0 then 0.0 else v)) f;
  }

let workflow inst = inst.workflow
let machines inst = inst.machines
let task_count inst = Workflow.task_count inst.workflow
let type_count inst = Workflow.type_count inst.workflow

let check_task inst i =
  if i < 0 || i >= task_count inst then invalid_arg "Instance: task out of range"

let check_machine inst u =
  if u < 0 || u >= inst.machines then invalid_arg "Instance: machine out of range"

let w inst i u =
  check_task inst i;
  check_machine inst u;
  inst.w.(i).(u)

let f inst i u =
  check_task inst i;
  check_machine inst u;
  inst.f.(i).(u)

let w_of_type inst j u =
  check_machine inst u;
  match Workflow.tasks_of_type inst.workflow j with
  | [] -> invalid_arg "Instance: type out of range"
  | i :: _ -> inst.w.(i).(u)

let heterogeneity inst u =
  check_machine inst u;
  Mf_numeric.Stats.population_stddev (Array.init (task_count inst) (fun i -> inst.w.(i).(u)))

let max_x inst =
  let n = task_count inst in
  let wf = inst.workflow in
  let worst_factor i =
    let fmax = Array.fold_left Float.max 0.0 inst.f.(i) in
    1.0 /. (1.0 -. fmax)
  in
  let xs = Array.make n 0.0 in
  (* Backward order guarantees the successor is filled before the task. *)
  Array.iter
    (fun i ->
      let downstream = match Workflow.successor wf i with None -> 1.0 | Some j -> xs.(j) in
      xs.(i) <- worst_factor i *. downstream)
    (Workflow.backward_order wf);
  xs

let period_upper_bound inst =
  let xs = max_x inst in
  let worst = ref 0.0 in
  for u = 0 to inst.machines - 1 do
    let acc = Mf_numeric.Kahan.create () in
    for i = 0 to task_count inst - 1 do
      Mf_numeric.Kahan.add acc (xs.(i) *. inst.w.(i).(u))
    done;
    worst := Float.max !worst (Mf_numeric.Kahan.total acc)
  done;
  !worst

let is_homogeneous inst =
  let v = inst.w.(0).(0) in
  Array.for_all (Array.for_all (fun x -> x = v)) inst.w

let failures_task_attached inst =
  Array.for_all (fun row -> Array.for_all (fun x -> x = row.(0)) row) inst.f

let pp fmt inst =
  Format.fprintf fmt "@[<v>instance: n=%d p=%d m=%d@,%a@]" (task_count inst)
    (type_count inst) inst.machines Workflow.pp inst.workflow
