module Instance = Mf_core.Instance
module Workflow = Mf_core.Workflow
module Mapping = Mf_core.Mapping
module Period = Mf_core.Period
module State = Mf_eval.State

(* A round keeps its first candidate only when it beats the round's
   starting period by this relative margin, or churn at ulp scale could
   descend forever; later ones need only beat the kept candidate. *)
let improves p current = p < current *. (1.0 -. 1e-12)

(* Candidates are evaluated incrementally through Mf_eval.State: a task
   move rescales the x of its upstream subtree and shifts load between
   two machines, so each candidate costs O(subtree + touched machines)
   instead of the O(n + m) full period recomputation of the reference
   implementation below.  Enumeration order and tie-breaking match the
   reference exactly: one best candidate over the move scan and then the
   swap scan, replaced only by a strictly lower period, is the
   reference's best move unless its best swap is strictly lower.  The
   kept candidate lives in int and float refs, so keeping one allocates
   nothing. *)
let descend ~budget ~down st =
  let inst = State.instance st in
  let n = Instance.task_count inst and m = Instance.machines inst in
  if Array.length down <> m then
    invalid_arg "Local_search.descend: down length differs from machine count";
  let evals = ref 0 and exhausted = ref false and improved = ref true in
  let current = ref (State.period st) in
  while !improved && not !exhausted do
    (* the round's best: task [a] to machine [b], or machines [a] and [b]
       swapped when [swap]; [a] is -1 while nothing is kept *)
    let a = ref (-1) and b = ref 0 and swap = ref false and best = ref 0.0 in
    for i = 0 to n - 1 do
      let original = State.machine_of st i in
      for u = 0 to m - 1 do
        if (not !exhausted) && (not down.(u)) && u <> original
           && State.move_allowed st ~task:i ~machine:u
        then begin
          if !evals >= budget then exhausted := true
          else begin
            let p = State.try_move st ~task:i ~machine:u in
            incr evals;
            if (!a < 0 && improves p !current) || (!a >= 0 && p < !best) then begin
              a := i;
              b := u;
              best := p
            end
          end
        end
      done
    done;
    for u = 0 to m - 1 do
      for v = u + 1 to m - 1 do
        if (not !exhausted) && (not down.(u)) && not down.(v) then begin
          if !evals >= budget then exhausted := true
          else begin
            let p = State.try_swap st ~u ~v in
            incr evals;
            if (!a < 0 && improves p !current) || (!a >= 0 && p < !best) then begin
              a := u;
              b := v;
              swap := true;
              best := p
            end
          end
        end
      done
    done;
    improved := !a >= 0;
    if !improved then begin
      if !swap then State.apply_swap st ~u:!a ~v:!b
      else State.apply_move st ~task:!a ~machine:!b;
      current := !best
    end
  done;
  !evals

let improve inst mp =
  let st = State.of_mapping inst mp in
  ignore (descend ~budget:max_int ~down:(Array.make (Instance.machines inst) false) st);
  State.mapping st

(* ------------------------------------------------------------------ *)
(* Reference implementation                                            *)
(* ------------------------------------------------------------------ *)

(* The original full-recomputation search, kept as the differential-test
   and benchmark baseline: the mapping is a raw allocation array and every
   candidate is scored by a from-scratch Period.period, O(n + m) each.
   Same candidates, margin and stop rule as [descend] with no machine
   down and no budget. *)

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
        let better =
          match !best with None -> improves p current | Some (_, _, bp) -> p < bp
        in
        if better then best := Some (i, u, p)
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
      let better =
        match !best with None -> improves p current | Some (_, _, bp) -> p < bp
      in
      if better then best := Some (u, v, p)
    done
  done;
  !best

let improve_reference inst mp =
  let a = Mapping.to_array mp in
  let current = ref (period_of inst a) in
  let improved = ref true in
  while !improved do
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
