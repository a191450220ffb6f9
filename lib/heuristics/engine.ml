module Instance = Mf_core.Instance
module Workflow = Mf_core.Workflow
module State = Mf_eval.State

(* The x/load bookkeeping lives in the shared incremental-evaluation state
   (Mf_eval.State); the engine keeps only what is specific to the
   backward-assignment heuristics: the specialized-rule dedication of
   machines to types and the feasibility reservation counters. *)
type t = {
  inst : Instance.t;
  order : int array;
  st : State.t;
  dedicated : int array; (* machine -> type, or -1 *)
  type_covered : bool array;
  mutable free_machines : int;
  mutable n_types_to_go : int;
}

let create inst =
  let m = Instance.machines inst in
  let p = Instance.type_count inst in
  if m < p then
    invalid_arg "Engine: fewer machines than task types - no specialized mapping exists";
  {
    inst;
    order = Workflow.backward_order (Instance.workflow inst);
    st = State.create inst;
    dedicated = Array.make m (-1);
    type_covered = Array.make p false;
    free_machines = m;
    n_types_to_go = p;
  }

let instance eng = eng.inst
let order eng = Array.copy eng.order

let load eng u =
  if u < 0 || u >= Array.length eng.dedicated then
    invalid_arg "Engine.load: machine out of range";
  State.machine_load eng.st u

let dedicated eng u =
  if u < 0 || u >= Array.length eng.dedicated then
    invalid_arg "Engine.dedicated: machine out of range";
  if eng.dedicated.(u) < 0 then None else Some eng.dedicated.(u)

let x_succ eng task =
  match Workflow.successor (Instance.workflow eng.inst) task with
  | None -> 1.0
  | Some j ->
    if State.machine_of eng.st j < 0 then
      invalid_arg "Engine: successor not yet assigned (backward order violated)"
    else State.x eng.st j

let x_candidate eng ~task ~machine =
  x_succ eng task /. (1.0 -. Instance.f eng.inst task machine)

let exec_if eng ~task ~machine =
  State.machine_load eng.st machine
  +. (x_candidate eng ~task ~machine *. Instance.w eng.inst task machine)

let eligible eng ~task ~machine =
  let ty = Workflow.ttype (Instance.workflow eng.inst) task in
  let d = eng.dedicated.(machine) in
  if d >= 0 then d = ty
  else if not eng.type_covered.(ty) then true
  else eng.free_machines > eng.n_types_to_go

let eligible_machines eng ~task =
  List.filter
    (fun u -> eligible eng ~task ~machine:u)
    (List.init (Instance.machines eng.inst) Fun.id)

let assign eng ~task ~machine =
  if State.machine_of eng.st task >= 0 then
    invalid_arg "Engine.assign: task already assigned";
  if not (eligible eng ~task ~machine) then
    invalid_arg "Engine.assign: machine not eligible for this task";
  let ty = Workflow.ttype (Instance.workflow eng.inst) task in
  (* Raises the engine's backward-order diagnostic when the successor is
     still unassigned, before the state is touched. *)
  ignore (x_succ eng task);
  if eng.dedicated.(machine) < 0 then begin
    eng.dedicated.(machine) <- ty;
    eng.free_machines <- eng.free_machines - 1;
    if not eng.type_covered.(ty) then begin
      eng.type_covered.(ty) <- true;
      eng.n_types_to_go <- eng.n_types_to_go - 1
    end
  end;
  State.assign_task_with eng.st ~extra:0.0 ~task ~machine

let reset eng =
  State.reset eng.st;
  Array.fill eng.dedicated 0 (Array.length eng.dedicated) (-1);
  Array.fill eng.type_covered 0 (Array.length eng.type_covered) false;
  eng.free_machines <- Instance.machines eng.inst;
  eng.n_types_to_go <- Instance.type_count eng.inst

let mapping eng =
  if not (State.is_complete eng.st) then
    invalid_arg "Engine.mapping: incomplete assignment";
  State.mapping eng.st

let free_machines eng = eng.free_machines
let types_to_go eng = eng.n_types_to_go
