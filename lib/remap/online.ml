module Instance = Mf_core.Instance
module Mapping = Mf_core.Mapping
module Period = Mf_core.Period
module Desim = Mf_sim.Desim
module State = Mf_eval.State

let any_stranded ~down mapping =
  Array.exists (fun u -> down.(u)) mapping

let remapper ?budget ~original inst : Desim.remapper =
  let orig = Mapping.to_array original in
  (* The designed mapping's period depends on nothing a decision changes:
     computed once, where the restore test first needs it. *)
  let orig_p = lazy (Period.period inst original) in
  (* One evaluation state for every decision of this re-mapper: each
     [Plan.repair] reloads it from the live mapping. *)
  let st = State.create inst in
  let strict_better p q = p < q *. (1.0 -. 1e-12) in
  fun ~time:_ ~down ~mapping change ->
    let repair () =
      match Plan.repair ?budget st ~mapping ~down with
      | None -> None (* no feasible host: stranded tasks wait for the crew *)
      | Some p when Array.length p.Plan.moves = 0 -> None
      | Some p -> Some { Desim.moves = p.Plan.moves; evals = p.Plan.evals }
    in
    match change with
    | Desim.Down _ -> if any_stranded ~down mapping then repair () else None
    | Desim.Up _ ->
      if any_stranded ~down mapping then
        (* a racing failure or an earlier infeasible plan left tasks on a
           still-down machine: this repair may have opened a host *)
        repair ()
      else begin
        (* nothing stranded: weigh doing nothing, restoring the designed
           mapping, and a budget-bounded improvement of the live one.
           With nothing to migrate the plan exists and its greedy period
           is the live mapping's own. *)
        match Plan.repair ?budget st ~mapping ~down with
        | None -> None
        | Some plan ->
          let live_p = plan.Plan.greedy_period in
          (* prefer the designed mapping whenever it is at least as good
             as the improved live one — and actually better than live *)
          let restore =
            (not (any_stranded ~down orig))
            && orig <> mapping
            && strict_better (Lazy.force orig_p) live_p
            && Lazy.force orig_p <= plan.Plan.period *. (1.0 +. 1e-12)
          in
          if restore then
            Some { Desim.moves = Plan.diff_moves ~from:mapping orig; evals = plan.Plan.evals + 1 }
          else if strict_better plan.Plan.period live_p && Array.length plan.Plan.moves > 0 then
            Some { Desim.moves = plan.Plan.moves; evals = plan.Plan.evals }
          else None
      end

let simulate ?budget ~breakdowns ~horizon ~seed ?on_event inst mp =
  let rm = remapper ?budget ~original:mp inst in
  Desim.run ~breakdowns ~remapper:rm ~horizon ~seed ?on_event inst mp
