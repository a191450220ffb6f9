module Instance = Mf_core.Instance
module Workflow = Mf_core.Workflow
module Mapping = Mf_core.Mapping
module Period = Mf_core.Period
module State = Mf_eval.State

(* Candidate moves are evaluated incrementally through Mf_eval.State: a
   task move rescales the x of its upstream subtree and shifts load
   between two machines, so each candidate costs O(subtree + touched
   machines) instead of the O(n + m) full period recomputation of the
   reference implementation below.  Enumeration order and tie-breaking
   match the reference exactly. *)

let best_task_move st current =
  let inst = State.instance st in
  let n = Instance.task_count inst and m = Instance.machines inst in
  let best = ref None in
  for i = 0 to n - 1 do
    let original = State.machine_of st i in
    for u = 0 to m - 1 do
      if u <> original && State.move_allowed st ~task:i ~machine:u then begin
        let p = State.try_move st ~task:i ~machine:u in
        let improves =
          match !best with None -> p < current | Some (_, _, bp) -> p < bp
        in
        if improves then best := Some (i, u, p)
      end
    done
  done;
  !best

let best_group_swap st current =
  let m = Instance.machines (State.instance st) in
  let best = ref None in
  for u = 0 to m - 1 do
    for v = u + 1 to m - 1 do
      let p = State.try_swap st ~u ~v in
      let improves = match !best with None -> p < current | Some (_, _, bp) -> p < bp in
      if improves then best := Some (u, v, p)
    done
  done;
  !best

(* Descent rounds at most, for both implementations. *)
let max_rounds = 100

let improve inst mp =
  let st = State.of_mapping inst mp in
  let current = ref (State.period st) in
  let improved = ref true in
  let rounds = ref 0 in
  while !improved && !rounds < max_rounds do
    incr rounds;
    improved := false;
    let move = best_task_move st !current in
    let swap = best_group_swap st !current in
    let apply_move (i, u, _) =
      State.apply_move st ~task:i ~machine:u;
      current := State.period st;
      improved := true
    in
    let apply_swap (u, v, _) =
      State.apply_swap st ~u ~v;
      current := State.period st;
      improved := true
    in
    match (move, swap) with
    | None, None -> ()
    | Some mv, None -> apply_move mv
    | None, Some sw -> apply_swap sw
    | Some ((_, _, pm) as mv), Some ((_, _, ps) as sw) ->
      if pm <= ps then apply_move mv else apply_swap sw
  done;
  State.mapping st

(* ------------------------------------------------------------------ *)
(* Reference implementation                                            *)
(* ------------------------------------------------------------------ *)

(* The original full-recomputation search, kept as the differential-test
   and benchmark baseline: the mapping is a raw allocation array and every
   candidate is scored by a from-scratch Period.period, O(n + m) each. *)

let period_of inst a = Period.period inst (Mapping.of_array inst a)

let machine_accepts inst a ~u ~ty ~except =
  let wf = Instance.workflow inst in
  let ok = ref true in
  Array.iteri
    (fun i ui -> if i <> except && ui = u && Workflow.ttype wf i <> ty then ok := false)
    a;
  !ok

let best_task_move_reference inst a current =
  let wf = Instance.workflow inst in
  let n = Instance.task_count inst and m = Instance.machines inst in
  let best = ref None in
  for i = 0 to n - 1 do
    let ty = Workflow.ttype wf i in
    let original = a.(i) in
    for u = 0 to m - 1 do
      if u <> original && machine_accepts inst a ~u ~ty ~except:i then begin
        a.(i) <- u;
        let p = period_of inst a in
        a.(i) <- original;
        let improves =
          match !best with None -> p < current | Some (_, _, bp) -> p < bp
        in
        if improves then best := Some (i, u, p)
      end
    done
  done;
  !best

let best_group_swap_reference inst a current =
  let m = Instance.machines inst in
  let best = ref None in
  let swap u v =
    Array.iteri (fun i ui -> if ui = u then a.(i) <- v else if ui = v then a.(i) <- u) a
  in
  for u = 0 to m - 1 do
    for v = u + 1 to m - 1 do
      swap u v;
      let p = period_of inst a in
      swap u v;
      let improves = match !best with None -> p < current | Some (_, _, bp) -> p < bp in
      if improves then best := Some (u, v, p)
    done
  done;
  !best

let improve_reference inst mp =
  let a = Mapping.to_array mp in
  let current = ref (period_of inst a) in
  let improved = ref true in
  let rounds = ref 0 in
  while !improved && !rounds < max_rounds do
    incr rounds;
    improved := false;
    let move = best_task_move_reference inst a !current in
    let swap = best_group_swap_reference inst a !current in
    let apply_move (i, u, p) =
      a.(i) <- u;
      current := p;
      improved := true
    in
    let apply_swap (u, v, p) =
      Array.iteri (fun i ui -> if ui = u then a.(i) <- v else if ui = v then a.(i) <- u) a;
      current := p;
      improved := true
    in
    match (move, swap) with
    | None, None -> ()
    | Some mv, None -> apply_move mv
    | None, Some sw -> apply_swap sw
    | Some ((_, _, pm) as mv), Some ((_, _, ps) as sw) ->
      if pm <= ps then apply_move mv else apply_swap sw
  done;
  Mapping.of_array inst a
