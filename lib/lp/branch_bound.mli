(** Best-first branch-and-bound for mixed-integer models.

    Each node is a pair of bound-override vectors; its LP relaxation is
    solved by the float simplex.  Nodes are explored in order of their LP
    bound, branching on the most fractional integer variable.  Solving a
    MIP is NP-complete (the paper leans on CPLEX for the same reason), so a
    node budget caps the search; when it triggers, the incumbent is
    returned with status [Feasible] instead of [Optimal]. *)

type status =
  | Optimal  (** incumbent proved optimal *)
  | Feasible  (** node budget exhausted with an incumbent *)
  | Infeasible
  | Unbounded  (** the root LP relaxation is unbounded *)
  | Unknown  (** node budget exhausted with no incumbent *)

type result = {
  status : status;
  solution : float array option;  (** model-space variable values *)
  objective : float option;  (** model-space objective *)
  nodes : int;
}

(** [solve ?node_budget model] (default: 200k nodes); an integer
    variable within 1e-6 of an integer counts as integral. *)
val solve : ?node_budget:int -> Model.t -> result
