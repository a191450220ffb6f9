(* Innermost-layer timings: {!Mf_eval.State} neighbourhood evaluations
   on a workload's own instances and mappings, in ns per call.  Each
   sweep covers a full neighbourhood; sweeps repeat until [min_s] of
   measurement has accumulated. *)

module State = Mf_eval.State
module Instance = Mf_core.Instance
module Workflow = Mf_core.Workflow

let min_s = 0.3

let sink = ref 0.0

(* Repeats [sweep] (which returns its call count) until [min_s] passes. *)
let ns_per_call sweep =
  let calls = ref 0 and t0 = Common.now () in
  while Common.now () -. t0 < min_s do
    calls := !calls + sweep ()
  done;
  1e9 *. (Common.now () -. t0) /. float_of_int (max 1 !calls)

(* Backward-order descent along a heuristic mapping, pricing every
   machine for the next task at each depth — the branch-and-bound inner
   loop. *)
let try_assign insts =
  let cases =
    List.map
      (fun inst ->
        let mp = fst (Mf_heuristics.Registry.best inst) in
        (inst, Mf_core.Mapping.to_array mp, Workflow.backward_order (Instance.workflow inst)))
      insts
  in
  let sweep () =
    List.fold_left
      (fun calls (inst, alloc, order) ->
        let st = State.create inst in
        let m = Instance.machines inst in
        Array.iter
          (fun task ->
            for u = 0 to m - 1 do
              sink := !sink +. State.try_assign_with st ~extra:0.0 ~task ~machine:u
            done;
            State.assign_task_with st ~extra:0.0 ~task ~machine:alloc.(task))
          order;
        calls + (m * Array.length order))
      0 cases
  in
  Layers.add "eval.try_assign_ns" (ns_per_call sweep)

(* Every task move and every machine-pair swap of each mapping — the
   re-mapper's local-search neighbourhood. *)
let try_move_swap cases =
  let states = List.map (fun (inst, mp) -> (inst, State.of_mapping inst mp)) cases in
  let moves () =
    List.fold_left
      (fun calls (inst, st) ->
        let n = Instance.task_count inst and m = Instance.machines inst in
        for task = 0 to n - 1 do
          for u = 0 to m - 1 do
            sink := !sink +. State.try_move st ~task ~machine:u
          done
        done;
        calls + (n * m))
      0 states
  in
  let swaps () =
    List.fold_left
      (fun calls (inst, st) ->
        let m = Instance.machines inst in
        for u = 0 to m - 1 do
          for v = u + 1 to m - 1 do
            sink := !sink +. State.try_swap st ~u ~v
          done
        done;
        calls + (m * (m - 1) / 2))
      0 states
  in
  Layers.add "eval.try_move_ns" (ns_per_call moves);
  Layers.add "eval.try_swap_ns" (ns_per_call swaps)
