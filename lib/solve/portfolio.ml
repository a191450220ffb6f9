module Canon = Mf_core.Canon
module Mapping = Mf_core.Mapping
open Solver

(* ---- canonical-space staging ------------------------------------- *)

(* [run_stages req] solves a feasible request whose instance is already
   canonical.  All budget decisions read a deterministic ledger of
   node-equivalents; the wall clock is never consulted. *)
let run_stages ?pool ?cancel (req : request) =
  let check_cancel () =
    match cancel with
    | Some tok when Mf_parallel.Pool.cancelled tok -> raise Mf_parallel.Pool.Cancelled
    | _ -> ()
  in
  let allowance = node_allowance req.budget in
  (* Deadline budgets charge the exact stage's per-node LP oracle
     pivots into the same node-equivalent ledger ([Dfs.solve
     ?pivot_charge]); [Nodes] budgets deliberately stay plain node
     counts — that is their contract, and the committed BENCH_exact
     regression rows pin it. *)
  let pivot_charge =
    match req.budget with
    | Deadline_ms _ -> Some node_lp_pivot_cost
    | Unlimited | Nodes _ -> None
  in
  let spent = ref 0 in
  let charge k = spent := !spent + k in
  let remaining () = match allowance with None -> max_int | Some k -> k - !spent in
  (* Stage 1: heuristics — always run; first incumbent. *)
  check_cancel ();
  let h = Engine.heuristics req in
  charge (Engine.heuristic_cost req.instance);
  let inc_mp = Option.get h.mapping and inc_p = Option.get h.period in
  if remaining () <= 0 && not req.want_certificate then
    { h with status = Budget_exhausted }
  else begin
    (* Stage 2: certified LP bound — skipped only when the remaining
       allowance cannot pay for it and no certificate was demanded. *)
    check_cancel ();
    let run_lp = req.want_certificate || remaining () > Engine.lp_cost_estimate req.instance in
    let lp_out = if run_lp then Some (Engine.lp req) else None in
    (match lp_out with
    | Some o -> charge (o.stats.lp_pivots * Engine.pivot_node_cost)
    | None -> ());
    let lower_bound = Option.bind lp_out (fun o -> o.lower_bound) in
    let inc_mp, inc_p =
      match lp_out with
      | Some { mapping = Some mp; period = Some p; _ } when p < inc_p -> (mp, p)
      | _ -> (inc_mp, inc_p)
    in
    let engines = h.engines @ (match lp_out with Some o -> o.engines | None -> []) in
    let stats =
      match lp_out with
      | Some o ->
        { h.stats with lp_pivots = o.stats.lp_pivots; lp_path = o.stats.lp_path }
      | None -> h.stats
    in
    let anytime status =
      { status; period = Some inc_p; mapping = Some inc_mp; lower_bound; engines; stats }
    in
    match lower_bound with
    | Some lb when inc_p <= lb -> anytime Optimal
    | _ ->
      if remaining () <= 0 then
        anytime
          (match lower_bound with
          | Some lb -> Feasible ((inc_p -. lb) /. lb)
          | None -> Budget_exhausted)
      else
        (* Stage 3: exact search over what is left, seeded with the
           shared incumbent and pruned by the certified bound. *)
        let ebudget =
          match allowance with None -> Unlimited | Some _ -> Nodes (remaining ())
        in
        let e =
          Engine.exact ?lower_bound ?pool ?pivot_charge ?cancel ~incumbent:(inc_mp, inc_p)
            { req with budget = ebudget }
        in
        {
          e with
          engines = engines @ e.engines;
          stats =
            {
              stats with
              exact_nodes = e.stats.exact_nodes;
              (* splitting-LP pivots plus the exact stage's per-node
                 bound-oracle pivots: one ledger for all simplex work *)
              lp_pivots = stats.lp_pivots + e.stats.lp_pivots;
              cache_hit = false;
            };
        }
  end

(* ---- canonical frame plumbing ------------------------------------ *)

let entry_of_outcome (out : outcome) : Cache.entry =
  {
    Cache.status = out.status;
    period = out.period;
    alloc = Option.map Mapping.to_array out.mapping;
    lower_bound = out.lower_bound;
    engines = out.engines;
    stats = { out.stats with cache_hit = false };
  }

(* Map a canonical-space entry back to the caller's machine frame.  The
   permutation only relabels machines — per-machine load sums see the
   same operands in the same task order — so periods, bounds and
   statuses transfer bit-for-bit. *)
let outcome_of_entry (req : request) (canon : Canon.t) ~cache_hit (e : Cache.entry) :
    outcome =
  {
    status = e.Cache.status;
    period = e.Cache.period;
    mapping =
      Option.map
        (fun alloc -> Mapping.of_array req.instance (Canon.map_from_canon canon alloc))
        e.Cache.alloc;
    lower_bound = e.Cache.lower_bound;
    engines = e.Cache.engines;
    stats = { e.Cache.stats with cache_hit };
  }

(* Canonicalize a feasible request, key it and look the key up with
   [find]: the frame and key a miss stores under, and a hit's answer
   mapped back. *)
let lookup find (req : request) =
  let canon = Canon.canonicalize req.instance in
  let key = Cache.request_key canon req in
  (canon, key, Option.map (outcome_of_entry req canon ~cache_hit:true) (find key))

let cached ~cache (req : request) =
  if not (feasible req.rule req.instance) then None
  else
    let _, _, hit = lookup (Cache.probe cache) req in
    hit

let solve ?cache ?pool ?cancel (req : request) =
  if not (feasible req.rule req.instance) then
    {
      status = Infeasible;
      period = None;
      mapping = None;
      lower_bound = None;
      engines = [];
      stats = zero_stats;
    }
  else
    let find key = Option.bind cache (fun c -> Cache.find c key) in
    match lookup find req with
    | _, _, Some hit -> hit
    | canon, key, None ->
      let out = run_stages ?pool ?cancel { req with instance = canon.Canon.instance } in
      let e = entry_of_outcome out in
      (match cache with Some c -> Cache.add c key e | None -> ());
      outcome_of_entry req canon ~cache_hit:false e
