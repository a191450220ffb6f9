(** Re-mapping plans: migrate the tasks of dead machines and refine.

    A plan is computed against a snapshot [(mapping, down)] of the live
    simulation state, on {!Mf_eval.State}'s O(subtree) incremental
    move/swap evaluation, so a decision costs a counted number of
    incremental evaluations rather than full O(n + m) re-scores.  Two
    phases:

    + {b greedy repair} — every task stranded on a down machine moves to
      the surviving machine minimising the resulting period (specialized
      rule enforced through {!Mf_eval.State.move_allowed}; ties toward
      the lowest machine index).  This phase always completes: its
      evaluations count toward the reported latency but are never capped,
      so budget pressure degrades quality, never feasibility.
    + {b bounded local search} — the offline local search's own descent,
      {!Mf_heuristics.Local_search.descend}, over the surviving machines
      only, with the budget the greedy phase left: [budget] evaluations
      in total.

    The planner never assigns a task to a down machine. *)

type t = {
  moves : (int * int) array;
      (** (task, machine) re-assignments vs the input mapping *)
  period : float;  (** period of the planned mapping *)
  greedy_period : float;  (** period after greedy repair alone *)
  evals : int;  (** incremental evaluations spent (≥ latency budget) *)
}

val default_budget : int

(** [diff_moves ~from target] lists the [(task, machine)] pairs where
    the allocation [target] differs from [from], in task order: the
    moves that turn [from] into [target]. *)
val diff_moves : from:int array -> int array -> (int * int) array

(** [repair ?budget st ~mapping ~down] plans the migration for [st]'s
    instance, working in [st]: it loads [mapping] into it
    ({!Mf_eval.State.load_mapping}) and leaves the planned mapping there.
    The caller owns [st] and may reuse it for the next decision, since
    nothing of what it held before is read; one state must not serve two
    plans at once.  [None] when some stranded task has no feasible
    surviving host under the specialized rule (the caller leaves the
    mapping alone; stranded tasks simply wait for the repair).  With no
    stranded task this is a pure budget-bounded improvement pass over the
    surviving machines, and [greedy_period] is the period of [mapping]
    itself, bit for bit [Period.period].
    @raise Invalid_argument on mismatched array lengths. *)
val repair :
  ?budget:int ->
  Mf_eval.State.t ->
  mapping:int array ->
  down:bool array ->
  t option
