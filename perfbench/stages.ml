(* Traced rebuild of {!Mf_solve.Portfolio.solve} (no cache): the same
   stages in the canonical frame, driven through each layer's public
   functions with timing wrappers — Canon, the heuristic stage, the
   splitting LP, and Dfs with a timed Node_bound oracle.  Budget
   decisions use only the public ledger constants, so the rebuilt
   outcome must match the untraced one node for node and pivot for
   pivot; the caller checks that. *)

module Canon = Mf_core.Canon
module Mapping = Mf_core.Mapping
module Solver = Mf_solve.Solver
module Engine = Mf_solve.Engine
module Dfs = Mf_exact.Dfs
module Node_bound = Mf_lp.Node_bound
module Splitting = Mf_lp.Splitting
module Mip = Mf_lp.Mip

type result = {
  period : float option;
  nodes : int;
  pivots : int;  (** splitting pivots plus node-LP pivots, as [Solver.stats.lp_pivots] *)
  allowance : int option;  (** the request's node-equivalent allowance *)
  spent : int;  (** node-equivalents the ledger charged *)
}

(* Node-LP time is kept in plain refs: the oracle runs once per search
   node, so the wrapper must cost little next to a warm-started solve. *)
let node_lp_s = ref 0.0
let node_lp_calls = ref 0

let add_node_bound_stats (s : Node_bound.stats) =
  Layers.add "node_lp.solves" (float_of_int s.Node_bound.solves);
  Layers.add "node_lp.reuses" (float_of_int s.Node_bound.reuses);
  Layers.add "node_lp.warm_starts" (float_of_int s.Node_bound.warm_starts);
  Layers.add "node_lp.pivots" (float_of_int s.Node_bound.pivots);
  Layers.add "node_lp.factorizations" (float_of_int s.Node_bound.factorizations)

(* One oracle per subtree search (the Dfs factory contract), each with
   a timed [nb_bound]. *)
let timed_factory ~rule inst =
  let oracles = ref [] in
  let factory () =
    let t = Node_bound.create ~rule inst in
    oracles := t :: !oracles;
    {
      Dfs.nb_push = (fun ~task ~machine -> Node_bound.push t ~task ~machine);
      nb_pop = (fun () -> Node_bound.pop t);
      nb_bound =
        (fun ~cutoff ->
          let t0 = Common.now () in
          let b = Node_bound.bound t ~cutoff in
          node_lp_s := !node_lp_s +. (Common.now () -. t0);
          incr node_lp_calls;
          b);
      nb_pivots = (fun () -> (Node_bound.stats t).Node_bound.pivots);
    }
  in
  (factory, oracles)

let add_dfs_stats (r : Dfs.result) =
  let s = r.Dfs.stats in
  Layers.add "dfs.nodes" (float_of_int r.Dfs.nodes);
  Layers.add "dfs.bound_prunes" (float_of_int s.Dfs.bound_prunes);
  Layers.add "dfs.dominance_prunes" (float_of_int s.Dfs.dominance_prunes);
  Layers.add "dfs.lp_prunes" (float_of_int s.Dfs.lp_prunes);
  Layers.add "dfs.symmetry_skips" (float_of_int s.Dfs.symmetry_skips);
  Layers.add "dfs.root_subtrees" (float_of_int s.Dfs.root_subtrees)

(* The LP stage as [Engine.lp] runs it: solve, certify the bound, round.
   Returns the lower bound, the rounded mapping and period, and pivots. *)
let lp_stage (req : Solver.request) =
  let inst = req.Solver.instance in
  match Splitting.solve inst with
  | Error _ -> (None, None, 0)
  | Ok r ->
    let s = r.Splitting.stats in
    let pivots = s.Mip.float_iterations + s.Mip.exact_iterations in
    Layers.add "splitting.pivots" (float_of_int pivots);
    Layers.add "splitting.factorizations" (float_of_int s.Mip.factorizations);
    Layers.add "splitting.refactorizations" (float_of_int s.Mip.refactorizations);
    Layers.add "splitting.eta_updates" (float_of_int s.Mip.eta_updates);
    let lb = Engine.certified_lower_bound r in
    let rounded =
      match req.Solver.rule with
      | Mapping.One_to_one -> None
      | Mapping.Specialized | Mapping.General -> (
        match Splitting.round inst r with
        | Error _ -> None
        | Ok (mp, _) -> Some (mp, Solver.score req mp))
    in
    (Some lb, rounded, pivots)

let solve (req : Solver.request) =
  let canon = Layers.span "canon" (fun () -> Canon.canonicalize req.Solver.instance) in
  let req = { req with Solver.instance = canon.Canon.instance } in
  let inst = req.Solver.instance in
  let allowance = Solver.node_allowance req.Solver.budget in
  let pivot_charge =
    match req.Solver.budget with
    | Solver.Deadline_ms _ -> Some Solver.node_lp_pivot_cost
    | Solver.Unlimited | Solver.Nodes _ -> None
  in
  let spent = ref 0 in
  let charge k = spent := !spent + k in
  let remaining () = match allowance with None -> max_int | Some k -> k - !spent in
  let h = Layers.span "heuristics" (fun () -> Engine.heuristics req) in
  charge (Engine.heuristic_cost inst);
  let inc_mp = Option.get h.Solver.mapping and inc_p = Option.get h.Solver.period in
  let finish ?(nodes = 0) ?(pivots = 0) period =
    { period; nodes; pivots; allowance; spent = !spent }
  in
  if remaining () <= 0 && not req.Solver.want_certificate then finish (Some inc_p)
  else begin
    let run_lp =
      req.Solver.want_certificate || remaining () > Engine.lp_cost_estimate inst
    in
    let lower_bound, rounded, lp_pivots =
      if run_lp then Layers.span "splitting" (fun () -> lp_stage req) else (None, None, 0)
    in
    charge (lp_pivots * Engine.pivot_node_cost);
    let inc_mp, inc_p =
      match rounded with Some (mp, p) when p < inc_p -> (mp, p) | _ -> (inc_mp, inc_p)
    in
    match lower_bound with
    | Some lb when inc_p <= lb -> finish ~pivots:lp_pivots (Some inc_p)
    | _ when remaining () <= 0 -> finish ~pivots:lp_pivots (Some inc_p)
    | _ ->
      let node_budget = Option.map (fun _ -> remaining ()) allowance in
      let use_lp = Mf_core.Instance.task_count inst >= Engine.lp_bound_threshold in
      let factory, oracles = timed_factory ~rule:req.Solver.rule inst in
      let node_bound = if use_lp then Some factory else None in
      let lp_s0 = !node_lp_s in
      let r =
        Layers.span "dfs" (fun () ->
            Dfs.solve ?node_budget ~setup:req.Solver.setup ?lower_bound
              ~incumbent:(inc_mp, inc_p) ?node_bound ?pivot_charge ~rule:req.Solver.rule inst)
      in
      Layers.add "dfs.node_lp.s" (!node_lp_s -. lp_s0);
      add_dfs_stats r;
      let nb_pivots =
        List.fold_left
          (fun acc t ->
            let s = Node_bound.stats t in
            add_node_bound_stats s;
            acc + s.Node_bound.pivots)
          0 !oracles
      in
      charge (r.Dfs.nodes + (nb_pivots * Option.value pivot_charge ~default:0));
      finish ~nodes:r.Dfs.nodes ~pivots:(lp_pivots + nb_pivots) (Some r.Dfs.period)
  end
