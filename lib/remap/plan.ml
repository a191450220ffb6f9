module Instance = Mf_core.Instance
module Mapping = Mf_core.Mapping
module State = Mf_eval.State

type t = {
  moves : (int * int) array;
  period : float;
  greedy_period : float;
  evals : int;
}

let default_budget = 400

(* Strict improvement threshold: a move must beat the incumbent by a
   relative margin, or churn at ulp scale would re-map forever. *)
let improves p current = p < current *. (1.0 -. 1e-12)

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
    (* Bounded local-search refinement over the surviving machines: best
       task move or machine group swap per round, stopping at the first
       non-improving round or when the evaluation budget runs out. *)
    let current = ref greedy_period in
    let exhausted = ref false in
    let improved = ref true in
    while !improved && not !exhausted do
      improved := false;
      let best_move = ref None in
      for i = 0 to n - 1 do
        let original = State.machine_of st i in
        for v = 0 to m - 1 do
          if (not !exhausted) && (not down.(v)) && v <> original
             && State.move_allowed st ~task:i ~machine:v
          then begin
            if !evals >= budget then exhausted := true
            else begin
              let p = State.try_move st ~task:i ~machine:v in
              incr evals;
              let better =
                match !best_move with
                | None -> improves p !current
                | Some (_, _, bp) -> p < bp
              in
              if better then best_move := Some (i, v, p)
            end
          end
        done
      done;
      let best_swap = ref None in
      for u = 0 to m - 1 do
        for v = u + 1 to m - 1 do
          if (not !exhausted) && (not down.(u)) && not down.(v) then begin
            if !evals >= budget then exhausted := true
            else begin
              let p = State.try_swap st ~u ~v in
              incr evals;
              let better =
                match !best_swap with
                | None -> improves p !current
                | Some (_, _, bp) -> p < bp
              in
              if better then best_swap := Some (u, v, p)
            end
          end
        done
      done;
      (match (!best_move, !best_swap) with
      | None, None -> ()
      | Some (i, v, p), None ->
        State.apply_move st ~task:i ~machine:v;
        current := p;
        improved := true
      | None, Some (u, v, p) ->
        State.apply_swap st ~u ~v;
        current := p;
        improved := true
      | Some (i, v, pm), Some (u, w, ps) ->
        if pm <= ps then State.apply_move st ~task:i ~machine:v
        else State.apply_swap st ~u ~v:w;
        current := Float.min pm ps;
        improved := true)
    done;
    let final = State.to_array st in
    let moves = ref [] in
    for i = n - 1 downto 0 do
      if final.(i) <> mapping.(i) then moves := (i, final.(i)) :: !moves
    done;
    Some
      {
        moves = Array.of_list !moves;
        period = State.period st;
        greedy_period;
        evals = !evals;
      }
  end
