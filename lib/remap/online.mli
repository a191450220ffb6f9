(** The online re-mapper: a {!Mf_sim.Desim.remapper} that migrates tasks
    off dead machines and restores the designed mapping after repairs.

    Decision policy, consulted on every availability change:

    - {b breakdown} — if any task now sits on a down machine, compute a
      {!Plan.repair} (greedy migration + bounded local search over the
      surviving machines).  If no feasible host exists the mapping is
      left alone: stranded tasks wait for the repair crew.
    - {b repair} — if tasks are still stranded (a racing failure, or an
      earlier infeasible plan), repair again.  Otherwise weigh three
      candidates and commit the best: do nothing, {e restore the original
      (designed) mapping} — chosen whenever it is feasible over the
      surviving machines, strictly better than the live mapping and at
      least as good as the improved one — or the budget-bounded
      improvement of the live mapping.

    Every decision's evaluation count is reported to the simulator, which
    turns it into simulated latency; the commit races the next
    availability change and is dropped when it loses. *)

(** [remapper ?budget ~original inst] builds the decision procedure.
    [budget] bounds the local-search evaluations per decision
    ({!Plan.default_budget} by default); [original] is the designed
    mapping restored after repairs when that wins.

    The procedure owns one {!Mf_eval.State} that every decision reloads
    and plans in, so it serves one simulation at a time: give each
    concurrent simulation (thread or domain) its own remapper, as
    {!simulate} does. *)
val remapper :
  ?budget:int ->
  original:Mf_core.Mapping.t ->
  Mf_core.Instance.t ->
  Mf_sim.Desim.remapper

(** [simulate ?budget ~breakdowns ~horizon ~seed inst mp] is
    {!Mf_sim.Desim.run} (default warm-up and buffer capacity) with the
    online re-mapper wired in, restoring toward [mp]. *)
val simulate :
  ?budget:int ->
  breakdowns:Mf_sim.Breakdown.t ->
  horizon:float ->
  seed:int ->
  ?on_event:(Mf_sim.Event.t -> unit) ->
  Mf_core.Instance.t ->
  Mf_core.Mapping.t ->
  Mf_sim.Desim.result
