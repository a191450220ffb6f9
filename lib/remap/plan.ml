module Instance = Mf_core.Instance
module Mapping = Mf_core.Mapping
module State = Mf_eval.State
module Local_search = Mf_heuristics.Local_search

type t = {
  moves : (int * int) array;
  period : float;
  greedy_period : float;
  evals : int;
}

let default_budget = 400

let diff_moves ~from target =
  let moves = ref [] in
  for i = Array.length from - 1 downto 0 do
    if from.(i) <> target.(i) then moves := (i, target.(i)) :: !moves
  done;
  Array.of_list !moves

let repair ?(budget = default_budget) st ~mapping ~down =
  let inst = State.instance st in
  let n = Instance.task_count inst and m = Instance.machines inst in
  if Array.length mapping <> n then
    invalid_arg "Plan.repair: mapping length differs from task count";
  if Array.length down <> m then
    invalid_arg "Plan.repair: down length differs from machine count";
  State.load_mapping st (Mapping.of_array inst mapping);
  let evals = ref 0 in
  (* Greedy repair: every task stranded on a down machine migrates to the
     up machine minimising the resulting period (ties toward the lowest
     machine index).  This phase always runs to completion — its
     evaluations are counted against the decision latency but never
     capped, so a tight budget can degrade the re-map's quality, not its
     feasibility. *)
  let stranded = ref [] in
  for i = n - 1 downto 0 do
    if down.(mapping.(i)) then stranded := i :: !stranded
  done;
  let feasible = ref true in
  List.iter
    (fun i ->
      if !feasible then begin
        let best = ref None in
        for v = 0 to m - 1 do
          if (not down.(v)) && v <> State.machine_of st i
             && State.move_allowed st ~task:i ~machine:v
          then begin
            let p = State.try_move st ~task:i ~machine:v in
            incr evals;
            match !best with
            | Some (_, bp) when bp <= p -> ()
            | _ -> best := Some (v, p)
          end
        done;
        match !best with
        | None -> feasible := false
        | Some (v, _) -> State.apply_move st ~task:i ~machine:v
      end)
    !stranded;
  if not !feasible then None
  else begin
    let greedy_period = State.period st in
    (* Budget-bounded refinement over the surviving machines: the
       greedy evaluations count against the budget too. *)
    let refined = Local_search.descend ~budget:(budget - !evals) ~down st in
    Some
      {
        moves = diff_moves ~from:mapping (State.to_array st);
        period = State.period st;
        greedy_period;
        evals = !evals + refined;
      }
  end
