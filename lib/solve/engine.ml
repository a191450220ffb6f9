module Instance = Mf_core.Instance
module Mapping = Mf_core.Mapping
module Registry = Mf_heuristics.Registry
module Splitting = Mf_lp.Splitting
module Dfs = Mf_exact.Dfs
open Solver

let infeasible engine =
  {
    status = Infeasible;
    period = None;
    mapping = None;
    lower_bound = None;
    engines = [ engine ];
    stats = zero_stats;
  }

let heuristics (req : request) =
  if not (feasible req.rule req.instance) then infeasible Heuristics
  else
    let (mp, p), runs =
      Dfs.seed_incumbent ~seed:req.seed ~setup:req.setup req.rule req.instance
    in
    {
      status = Feasible infinity;
      period = Some p;
      mapping = Some mp;
      lower_bound = None;
      engines = [ Heuristics ];
      stats = { zero_stats with heuristic_runs = runs };
    }

let certified_lower_bound (r : Splitting.result) =
  let margin =
    match r.Splitting.stats.Mf_lp.Mip.path with `Rational -> 1e-9 | `Float -> 1e-6
  in
  r.Splitting.period *. (1.0 -. margin)

let lp_stats (r : Splitting.result) =
  let s = r.Splitting.stats in
  {
    zero_stats with
    lp_pivots = s.Mf_lp.Mip.float_iterations + s.Mf_lp.Mip.exact_iterations;
    lp_path =
      (match s.Mf_lp.Mip.path with `Float -> Float_path | `Rational -> Rational_path);
  }

let lp (req : request) =
  let inst = req.instance in
  match Splitting.solve inst with
  | Error _ -> infeasible Lp
  | Ok r -> (
    let lb = certified_lower_bound r in
    let stats = lp_stats r in
    let bound_only =
      {
        status = Bound_only lb;
        period = None;
        mapping = None;
        lower_bound = Some lb;
        engines = [ Lp ];
        stats;
      }
    in
    match req.rule with
    | Mapping.One_to_one -> bound_only
    | Mapping.Specialized | Mapping.General -> (
      match Splitting.round inst r with
      | Error _ -> bound_only
      | Ok (mp, _) ->
        (* the rounded mapping is specialized, hence pays no setup under
           the general rule either; still score through the request for
           one uniform convention *)
        let p = score req mp in
        let status = if p <= lb then Optimal else Feasible ((p -. lb) /. lb) in
        {
          status;
          period = Some p;
          mapping = Some mp;
          lower_bound = Some lb;
          engines = [ Lp ];
          stats;
        }))

(* Per-node LP bounds pay ~500 plain-node-equivalents per evaluation;
   below this size the plain search exhausts the tree before the first
   handful of LP solves would pay for themselves (BENCH_exact: the
   crossover on the solvable-scan family sits between n = 12 and 14). *)
let lp_bound_threshold = 14

(* Adapt Mf_lp.Node_bound to the Dfs oracle record.  One oracle per
   subtree search (the factory contract), accumulated under a mutex:
   subtree searches run on pool domains, and the engine sums the
   oracles' counters into the outcome stats afterwards. *)
let node_bound_factory ~rule inst =
  let oracles = ref [] and guard = Mutex.create () in
  let factory () =
    let t = Mf_lp.Node_bound.create ~rule inst in
    Mutex.protect guard (fun () -> oracles := t :: !oracles);
    {
      Dfs.nb_push = (fun ~task ~machine -> Mf_lp.Node_bound.push t ~task ~machine);
      nb_pop = (fun () -> Mf_lp.Node_bound.pop t);
      nb_bound = (fun ~cutoff -> Mf_lp.Node_bound.bound t ~cutoff);
      nb_pivots = (fun () -> (Mf_lp.Node_bound.stats t).Mf_lp.Node_bound.pivots);
    }
  in
  let stats () =
    List.fold_left
      (fun acc t -> Mf_lp.Node_bound.add_stats acc (Mf_lp.Node_bound.stats t))
      Mf_lp.Node_bound.zero_stats !oracles
  in
  (factory, stats)

let exact ?lower_bound ?incumbent ?pool ?pivot_charge ?cancel (req : request) =
  let inst = req.instance in
  if not (feasible req.rule inst) then infeasible Exact
  else
    let node_budget = node_allowance req.budget in
    let node_bound, nb_pivots =
      if Instance.task_count inst >= lp_bound_threshold then
        let factory, stats = node_bound_factory ~rule:req.rule inst in
        (Some factory, fun () -> (stats ()).Mf_lp.Node_bound.pivots)
      else (None, fun () -> 0)
    in
    let r =
      Dfs.solve ?node_budget ~setup:req.setup ?pool ?lower_bound ?incumbent ?node_bound
        ?pivot_charge ?cancel ~rule:req.rule inst
    in
    let status =
      if r.Dfs.optimal then Optimal
      else
        match lower_bound with
        | Some lb when lb > 0.0 -> Feasible ((r.Dfs.period -. lb) /. lb)
        | _ -> Budget_exhausted
    in
    {
      status;
      period = Some r.Dfs.period;
      mapping = Some r.Dfs.mapping;
      lower_bound;
      engines = [ Exact ];
      stats = { zero_stats with exact_nodes = r.Dfs.nodes; lp_pivots = nb_pivots () };
    }

let brute (req : request) =
  let inst = req.instance in
  if not (feasible req.rule inst) then infeasible Brute
  else
    let mp, p =
      match req.rule with
      | Mapping.Specialized -> Mf_exact.Brute.specialized inst
      | Mapping.General -> Mf_exact.Brute.general ~setup:req.setup inst
      | Mapping.One_to_one -> Mf_exact.Brute.one_to_one inst
    in
    {
      status = Optimal;
      period = Some p;
      mapping = Some mp;
      lower_bound = Some p;
      engines = [ Brute ];
      stats = zero_stats;
    }

(* Cost model: fixed node-equivalent prices (calibrated once against
   BENCH_exact/BENCH_lp, never measured at runtime — determinism). *)

let pivot_node_cost = 50

let heuristic_cost inst =
  (* every registry heuristic is O(n * m)-ish; the whole stage costs
     about one n*m sweep per heuristic *)
  (List.length Registry.all * Instance.task_count inst * Instance.machines inst) + 1

let lp_cost_estimate inst =
  (* the splitting LP has n*m + m + 1-ish columns and typically
     converges in a small multiple of (n + m) pivots *)
  4 * (Instance.task_count inst + Instance.machines inst) * pivot_node_cost
