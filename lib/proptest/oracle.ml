module Instance = Mf_core.Instance
module Workflow = Mf_core.Workflow
module Mapping = Mf_core.Mapping
module Period = Mf_core.Period
module State = Mf_eval.State
module Registry = Mf_heuristics.Registry
module Local_search = Mf_heuristics.Local_search
module Dfs = Mf_exact.Dfs
module Brute = Mf_exact.Brute
module Symmetry = Mf_exact.Symmetry
module Splitting = Mf_lp.Splitting
module Desim = Mf_sim.Desim
module Breakdown = Mf_sim.Breakdown
module Sim_metrics = Mf_sim.Metrics
module Plan = Mf_remap.Plan
module Rat = Mf_numeric.Rat
open Gen

type outcome = { oracle : string; cases : int; failed : failed option }

and failed = {
  case_index : int;
  case_seed : int;
  shrink_steps : int;
  message : string;
  repr : string;
}

type t =
  | Oracle : {
      name : string;
      description : string;
      quick_cases : int;
      gen : 'a Gen.t;
      prop : 'a Prop.property;
      print : 'a -> string;
    }
      -> t

let name (Oracle o) = o.name
let description (Oracle o) = o.description
let quick_cases (Oracle o) = o.quick_cases

(* Properties are written with an internal failure exception so checks
   chain without result plumbing; [prop_of] converts to the runner's
   result type (other exceptions are caught by [Prop.eval]). *)
exception Fail of string

let failf fmt = Printf.ksprintf (fun s -> raise (Fail s)) fmt
let check b fmt = Printf.ksprintf (fun s -> if not b then raise (Fail s)) fmt
let prop_of f x = match f x with () -> Ok () | exception Fail m -> Error m

let rel_close ?(tol = 1e-9) a b =
  Float.abs (a -. b) <= tol *. Float.max 1.0 (Float.max (Float.abs a) (Float.abs b))

let exact_period inst mp = Rat.to_float (Period.period_exact inst mp)

(* ------------------------------------------------------------------ *)
(* eval: State vs Period under committed move/swap sequences           *)
(* ------------------------------------------------------------------ *)

let eval_gen =
  let* inst = Instances.instance ~max_tasks:8 ~max_machines:4 () in
  let* mp = Instances.allocation inst in
  let* steps = Instances.ops inst ~max_ops:12 in
  return (inst, mp, steps)

let eval_prop (inst, mp, steps) =
  let st = State.of_mapping inst mp in
  let p0 = State.period st in
  check (p0 = Period.period inst mp) "of_mapping period %h <> Period.period %h" p0
    (Period.period inst mp);
  check
    (rel_close p0 (exact_period inst mp))
    "float period %.17g vs exact %.17g" p0 (exact_period inst mp);
  let alloc = Mapping.to_array mp in
  Array.iteri
    (fun k op ->
      let tried, predicted =
        match op with
        | Instances.Move { task; machine } ->
          let p = State.try_move st ~task ~machine in
          State.apply_move st ~task ~machine;
          alloc.(task) <- machine;
          ("try_move", p)
        | Instances.Swap { u; v } ->
          let p = State.try_swap st ~u ~v in
          State.apply_swap st ~u ~v;
          Array.iteri
            (fun i w -> if w = u then alloc.(i) <- v else if w = v then alloc.(i) <- u)
            alloc;
          ("try_swap", p)
      in
      let got = State.period st in
      let reference = Period.period inst (Mapping.of_array inst alloc) in
      check (rel_close predicted got) "step %d (%s): %s %.17g vs applied %.17g" k
        (Instances.op_to_string op) tried predicted got;
      check (rel_close got reference) "step %d (%s): state %.17g vs reference %.17g" k
        (Instances.op_to_string op) got reference)
    steps;
  State.check ~tol:1e-9 st;
  check
    (rel_close (State.period st) (exact_period inst (Mapping.of_array inst alloc)))
    "final float period %.17g vs exact %.17g" (State.period st)
    (exact_period inst (Mapping.of_array inst alloc));
  (* Whatever the committed history left in the compensated accumulators,
     reloading the start mapping rebuilds its period bit-for-bit. *)
  State.load_mapping st mp;
  check
    (Int64.bits_of_float (State.period st) = Int64.bits_of_float p0)
    "reload: %h <> initial %h" (State.period st) p0

let eval_oracle =
  Oracle
    {
      name = "eval";
      description =
        "State move/swap commits vs Period.period / period_exact, reload bit-exact";
      quick_cases = 300;
      gen = eval_gen;
      prop = prop_of eval_prop;
      print = (fun (i, m, s) -> Instances.print_case i m s);
    }

(* ------------------------------------------------------------------ *)
(* heuristics: every registry algorithm is feasible and truly scored    *)
(* ------------------------------------------------------------------ *)

let heuristics_gen =
  Instances.instance ~max_tasks:8 ~max_machines:5 ~machines_cover_types:true
    ~duplicate_machine:true ()

let heuristics_prop inst =
  let periods =
    List.map
      (fun h ->
        let mp = Registry.solve ~seed:0 h inst in
        check
          (Mapping.satisfies inst mp Mapping.Specialized)
          "%s returned a non-specialized mapping" (Registry.name h);
        let p = Period.period inst mp in
        check
          (rel_close p (exact_period inst mp))
          "%s: float period %.17g vs exact %.17g" (Registry.name h) p
          (exact_period inst mp);
        p)
      Registry.all
  in
  let best_mp, best_p = Registry.best ~seed:0 inst in
  check
    (Mapping.satisfies inst best_mp Mapping.Specialized)
    "best returned a non-specialized mapping";
  check
    (best_p = Period.period inst best_mp)
    "best period %h <> evaluation of its mapping %h" best_p
    (Period.period inst best_mp);
  let min_p = List.fold_left Float.min infinity periods in
  check (best_p = min_p) "best period %h <> catalogue minimum %h" best_p min_p

let heuristics_oracle =
  Oracle
    {
      name = "heuristics";
      description = "Registry: rule-feasible mappings, periods match reference";
      quick_cases = 250;
      gen = heuristics_gen;
      prop = prop_of heuristics_prop;
      print = Instances.print_instance;
    }

(* ------------------------------------------------------------------ *)
(* exact-vs-brute: Dfs.solve = exhaustive enumeration, all three rules  *)
(* ------------------------------------------------------------------ *)

let exact_gen =
  Instances.instance ~max_tasks:5 ~max_machines:4 ~machines_cover_types:true
    ~duplicate_machine:true ()

let brute_of_rule = function
  | Mapping.Specialized -> Brute.specialized
  | Mapping.General -> Brute.general ?setup:None
  | Mapping.One_to_one -> Brute.one_to_one

let exact_prop inst =
  let n = Instance.task_count inst in
  let m = Instance.machines inst in
  let rules =
    [ Mapping.Specialized; Mapping.General ]
    @ (if m >= n then [ Mapping.One_to_one ] else [])
  in
  List.iter
    (fun rule ->
      let _, expected = brute_of_rule rule inst in
      let r = Dfs.solve ~rule inst in
      check r.Dfs.optimal "%s: search not optimal" (Mapping.rule_name rule);
      check
        (rel_close r.Dfs.period expected)
        "%s: dfs %.17g vs brute %.17g" (Mapping.rule_name rule) r.Dfs.period expected;
      check
        (Mapping.satisfies inst r.Dfs.mapping rule)
        "%s: reported mapping violates the rule" (Mapping.rule_name rule);
      check
        (rel_close (Period.period inst r.Dfs.mapping) r.Dfs.period)
        "%s: reported period %.17g vs evaluation of reported mapping %.17g"
        (Mapping.rule_name rule) r.Dfs.period
        (Period.period inst r.Dfs.mapping))
    rules

let exact_oracle =
  Oracle
    {
      name = "exact-vs-brute";
      description = "Dfs.solve = Brute under all three rules on small instances";
      quick_cases = 200;
      gen = exact_gen;
      prop = prop_of exact_prop;
      print = Instances.print_instance;
    }

(* ------------------------------------------------------------------ *)
(* lp-vs-exact: the splitting LP bound never exceeds the true optimum   *)
(* ------------------------------------------------------------------ *)

(* The float revised simplex must close every splitting LP on its own
   (no rational fallback) and agree with a cold exact-rational solve of
   the same system to rel 1e-6; both bounds stay below the brute-force
   optimum. *)

let lp_gen =
  Instances.instance ~max_tasks:5 ~max_machines:4 ~machines_cover_types:true ()

let lp_prop inst =
  let _, optimum = Brute.general inst in
  let lp =
    match Splitting.solve inst with
    | Ok r -> r
    | Error e -> failf "LP failed: %s" (Splitting.describe_error e)
  in
  check (lp.Splitting.period > 0.0) "LP period %.17g not positive" lp.Splitting.period;
  check
    (lp.Splitting.stats.Mf_lp.Mip.path = `Float)
    "float simplex did not close the splitting LP";
  check
    (lp.Splitting.period <= optimum *. (1.0 +. 1e-9))
    "LP bound %.17g exceeds exact optimum %.17g" lp.Splitting.period optimum;
  match Splitting.solve_exact inst with
  | Error e -> failf "exact LP failed: %s" (Splitting.describe_error e)
  | Ok exact ->
    check
      (rel_close ~tol:1e-6 lp.Splitting.period exact)
      "float LP %.17g vs exact-rational LP %.17g" lp.Splitting.period exact;
    check
      (exact <= optimum *. (1.0 +. 1e-12))
      "certified LP bound %.17g exceeds exact optimum %.17g" exact optimum

let lp_oracle =
  Oracle
    {
      name = "lp-vs-exact";
      description =
        "Splitting LP closed by the float simplex, = exact-rational LP, bound <= exact optimum";
      quick_cases = 150;
      gen = lp_gen;
      prop = prop_of lp_prop;
      print = Instances.print_instance;
    }

(* ------------------------------------------------------------------ *)
(* warm-start: re-optimizing from any basis agrees with the cold solve  *)
(* ------------------------------------------------------------------ *)

(* The splitting LP of an lp-differential instance, solved
   cold and then warm from a starting basis of one of three kinds:
   (0) distinct column ids drawn at random, artificials included;
   (1) the all-artificial basis; (2) the float optimal basis of a
   perturbed copy (every coefficient scaled by a factor on the 1/64
   grid), the stale-but-close basis the node LPs and the certification
   path hand over.  Float and exact-rational solvers both run: the
   verdicts must match the cold solve's, the objectives agree to rel
   1e-9 (float) or exactly (rational), the basis never names the
   auxiliary column x0, and the rational warm start never restarts. *)

let warm_start_kinds = [| "random"; "all-artificial"; "perturbed optimum" |]

let warm_start_case ~instance ~start ~seed =
  let module FS = Mf_lp.Simplex.Float_solver in
  let module RS = Mf_lp.Simplex.Rat_solver in
  let module Sp = Mf_lp.Sparse in
  let body () =
    let { Splitting.a; b; c } = Splitting.build (Instances.lp_differential_instance instance) in
    let rows = Array.length b and n = Array.length c in
    let rng = Mf_prng.Rng.create seed in
    let basis =
      match start with
      | 0 ->
        let ids = Array.init (n + rows) Fun.id in
        Mf_prng.Rng.shuffle rng ids;
        Array.sub ids 0 rows
      | 1 -> Array.init rows (fun i -> n + i)
      | _ ->
        let jiggle v = v *. (1.0 +. (float_of_int (Mf_prng.Rng.int rng 9 - 4) /. 64.0)) in
        let pa = Sp.map_values jiggle a in
        let pb = Array.map jiggle b and pc = Array.map jiggle c in
        (FS.solve_sparse_detailed ~a:pa ~b:pb ~c:pc ()).FS.basis
    in
    let kind = warm_start_kinds.(start) in
    let check_basis solver (got : int array) =
      let seen = Array.make (n + rows) false in
      Array.iter
        (fun j ->
          check (j >= 0 && j < n + rows) "%s warm basis (%s) names column %d, outside [0, %d)"
            solver kind j (n + rows);
          check (not seen.(j)) "%s warm basis (%s) repeats column %d" solver kind j;
          seen.(j) <- true)
        got
    in
    let fname = function
      | FS.Optimal _ -> "optimal"
      | FS.Infeasible -> "infeasible"
      | FS.Unbounded -> "unbounded"
      | FS.Stalled -> "stalled"
    in
    let cold = FS.solve_sparse_detailed ~a ~b ~c () in
    let warm = FS.solve_sparse_from_basis ~a ~b ~c ~basis () in
    check_basis "float" warm.FS.basis;
    (match (cold.FS.outcome, warm.FS.outcome) with
    | FS.Optimal (_, co), FS.Optimal (_, wo) ->
      check (rel_close co wo) "float warm objective (%s) %.17g vs cold %.17g" kind wo co
    | co, wo ->
      check (fname co = fname wo) "float warm verdict (%s) %s vs cold %s" kind (fname wo)
        (fname co));
    let rcold = Mf_lp.Mip.certify ~a ~b ~c () in
    let rwarm = Mf_lp.Mip.certify ~basis ~a ~b ~c () in
    check_basis "rational" rwarm.RS.basis;
    check (rwarm.RS.fallbacks = 0) "rational warm start (%s) restarted %d times" kind
      rwarm.RS.fallbacks;
    match (rcold.RS.outcome, rwarm.RS.outcome) with
    | RS.Optimal (_, co), RS.Optimal (_, wo) ->
      check (Rat.compare co wo = 0) "rational warm objective (%s) %s vs cold %s" kind
        (Rat.to_string wo) (Rat.to_string co)
    | RS.Infeasible, RS.Infeasible | RS.Unbounded, RS.Unbounded -> ()
    | _ -> failf "rational warm verdict (%s) differs from the cold solve" kind
  in
  prop_of body ()

let warm_start_gen =
  let* instance = int_range 0 199 in
  let* start = int_range 0 2 in
  let+ seed = no_shrink (int_range 0 0x3fffffff) in
  (instance, start, seed)

let warm_start_oracle =
  Oracle
    {
      name = "warm-start";
      description = "simplex warm start from any basis agrees with the cold solve";
      quick_cases = 12;
      gen = warm_start_gen;
      prop = (fun (instance, start, seed) -> warm_start_case ~instance ~start ~seed);
      print =
        (fun (instance, start, seed) ->
          Printf.sprintf "lp-differential instance %d, %s start, seed %d" instance
            warm_start_kinds.(start) seed);
    }

(* ------------------------------------------------------------------ *)
(* sim-vs-analytic: simulated throughput and loss rates in z = 6 bands  *)
(* ------------------------------------------------------------------ *)

let sim_gen =
  let* inst =
    Instances.instance ~max_tasks:5 ~max_machines:3 ~machines_cover_types:true
      ~forest:false ~kmax:2 ()
  in
  let* mp = Instances.allocation inst in
  let* seed = no_shrink (int_range 0 1_000_000) in
  return (inst, mp, seed)

(* Target ~2500 outputs inside the measurement window.  Throughput band:
   z = 6 (one-sided tail < 1e-9) under the documented cv <= 1 assumption
   for the inter-output time, plus 1% systematic slack for the fill
   transient and an 8-output floor for window-boundary effects.  Loss
   band: Wilson score interval at z = 6 on whole-run execution counts;
   f = 0 tasks must lose exactly nothing.  See DESIGN.md section 12 for
   the false-positive budget accounting. *)
let check_loss_bands inst mp (r : Desim.result) ~seed =
  for i = 0 to Instance.task_count inst - 1 do
    let fi = Instance.f inst i (Mapping.machine mp i) in
    let e = r.Desim.executions.(i) and l = r.Desim.lost.(i) in
    if fi = 0.0 then
      check (l = 0) "task %d: %d losses with configured f = 0" i l
    else if e > 0 then begin
      let z = 6.0 in
      let e' = float_of_int e in
      let phat = float_of_int l /. e' in
      let denom = 1.0 +. (z *. z /. e') in
      let centre = (phat +. (z *. z /. (2.0 *. e'))) /. denom in
      let half =
        z /. denom
        *. sqrt ((phat *. (1.0 -. phat) /. e') +. (z *. z /. (4.0 *. e' *. e')))
      in
      check
        (Float.abs (fi -. centre) <= half)
        "task %d: configured f = %.6f outside Wilson band %.6f +- %.6f (%d/%d, seed %d)"
        i fi centre half l e seed
    end
  done

let sim_prop (inst, mp, seed) =
  let p = Period.period inst mp in
  let horizon = p *. 3125.0 in
  let r = Desim.run ~horizon ~seed inst mp in
  let expected = r.Desim.window /. p in
  let band = (6.0 *. sqrt expected) +. (0.01 *. expected) +. 8.0 in
  check
    (Float.abs (float_of_int r.Desim.outputs -. expected) <= band)
    "outputs %d vs expected %.1f (band %.1f, seed %d)" r.Desim.outputs expected band
    seed;
  check_loss_bands inst mp r ~seed

let sim_oracle =
  Oracle
    {
      name = "sim-vs-analytic";
      description = "Desim throughput and loss rates within z = 6 bands of 1/period";
      quick_cases = 120;
      gen = sim_gen;
      prop = prop_of sim_prop;
      print = (fun (i, m, _) -> Instances.print_with_mapping i m);
    }

(* ------------------------------------------------------------------ *)
(* sim-breakdowns: the dynamic model against availability analytics     *)
(* ------------------------------------------------------------------ *)

let simbd_gen =
  let* inst =
    Instances.instance ~max_tasks:5 ~max_machines:3 ~machines_cover_types:true
      ~forest:false ~kmax:2 ()
  in
  let* mp = Instances.allocation inst in
  let* profile = Instances.breakdown_profile inst in
  let* seed = no_shrink (int_range 0 1_000_000) in
  return (inst, mp, profile, seed)

(* Three layers of z = 6 bands around the breakdown analytics:

   - {b throughput} — long-run output rate min_u avail(u) / load(u)
     (exact for wear 0, unbounded buffers and uncontended crews: machine
     [u] fails at rate 1/mtbf per unit of {e busy} time, so its capacity
     constraint is tp . load_u . (1 + mttr/mtbf) <= 1, i.e.
     tp <= avail_u / load_u, binding at the saturated bottleneck).  The
     variance term sums, per machine, the renewal-process asymptotic
     std of cumulative up time, conservatively bounded by
     sqrt(2 a (1-a) (mtbf+mttr) W) in window units and translated to
     outputs through that machine's load; 2% systematic slack plus a
     16-output floor absorb the fill transient and window boundaries.
   - {b breakdown counts} — with wear 0 the hazard thresholds are i.i.d.
     Exp(mtbf) consumed by busy time, so given the measured busy time
     the count is exactly Poisson(busy/mtbf).
   - {b downtime} — given the count, total downtime is within a
     Gamma(count, mttr) band of count . mttr (the +12 mttr slack covers
     the one repair the horizon can truncate); mttr = 0 laws fold
     repairs into the interrupted busy segment and must leave downtime
     {e exactly} zero.

   The per-task Wilson loss bands also re-run here: task losses are
   Bernoulli per execution regardless of availability, and the check
   pins the breakdown RNG streams' independence from the loss stream. *)
let simbd_prop (inst, mp, profile, seed) =
  let p = Period.period inst mp in
  let laws =
    Array.map
      (fun (mult, ratio) ->
        { Breakdown.mtbf = mult *. p; mttr = ratio *. mult *. p; wear = 0.0 })
      profile
  in
  let bd = Breakdown.make laws in
  let horizon = p *. 12288.0 in
  let r = Desim.run ~breakdowns:bd ~horizon ~seed inst mp in
  let w = r.Desim.window in
  let expected = w *. Sim_metrics.adjusted_throughput inst mp bd in
  let loads = Period.machine_periods inst mp in
  let var = ref 0.0 in
  Array.iteri
    (fun u (l : Breakdown.law) ->
      if loads.(u) > 0.0 && l.Breakdown.mttr > 0.0 then begin
        let a = Breakdown.availability l in
        let cycle = l.Breakdown.mtbf +. l.Breakdown.mttr in
        let s = w /. loads.(u) *. sqrt (2.0 *. a *. (1.0 -. a) *. cycle /. w) in
        var := !var +. (s *. s)
      end)
    laws;
  let band = (6.0 *. sqrt (expected +. !var)) +. (0.02 *. expected) +. 16.0 in
  check
    (Float.abs (float_of_int r.Desim.outputs -. expected) <= band)
    "outputs %d vs availability-adjusted %.1f (band %.1f, seed %d)" r.Desim.outputs
    expected band seed;
  for u = 0 to Instance.machines inst - 1 do
    let l = laws.(u) in
    let lambda = r.Desim.busy.(u) /. l.Breakdown.mtbf in
    let n = float_of_int r.Desim.breakdowns.(u) in
    let cband = (6.0 *. sqrt (lambda +. 1.0)) +. 8.0 in
    check
      (Float.abs (n -. lambda) <= cband)
      "machine %d: %d breakdowns vs busy/mtbf = %.1f (band %.1f, seed %d)" u
      r.Desim.breakdowns.(u) lambda cband seed;
    if l.Breakdown.mttr = 0.0 then
      check
        (r.Desim.downtime.(u) = 0.0)
        "machine %d: instant repairs left downtime %g (seed %d)" u
        r.Desim.downtime.(u) seed
    else begin
      let dband = l.Breakdown.mttr *. ((6.0 *. sqrt (n +. 1.0)) +. 12.0) in
      check
        (Float.abs (r.Desim.downtime.(u) -. (n *. l.Breakdown.mttr)) <= dband)
        "machine %d: downtime %.1f vs %d repairs x mttr %.1f (band %.1f, seed %d)" u
        r.Desim.downtime.(u) r.Desim.breakdowns.(u) l.Breakdown.mttr dband seed
    end
  done;
  check_loss_bands inst mp r ~seed

let simbd_oracle =
  Oracle
    {
      name = "sim-breakdowns";
      description =
        "dynamic Desim: throughput, breakdown counts and downtime within z = 6 \
         bands of the availability analytics";
      quick_cases = 40;
      gen = simbd_gen;
      prop = prop_of simbd_prop;
      print = (fun (i, m, prof, _) -> Instances.print_breakdown_case i m prof);
    }

(* ------------------------------------------------------------------ *)
(* remap-safety: the online re-mapper under breakdown/repair scripts    *)
(* ------------------------------------------------------------------ *)

let remap_gen =
  let* inst =
    Instances.instance ~max_tasks:6 ~max_machines:4 ~machines_cover_types:true ()
  in
  let* mp = Instances.specialized_allocation inst in
  let* script = Instances.avail_script ~max_ops:6 in
  let* budget = choose [| return 0; return 60; return Plan.default_budget |] in
  return (inst, mp, script, budget)

(* Interprets the availability script the way the simulator would drive
   the re-mapper — one {!Plan.repair} per change, all in one reused
   {!Mf_eval.State} as {!Mf_remap.Online.remapper} runs them, committed
   moves folded into the live mapping — and checks, at every step:

   - every committed assignment targets a surviving machine and the
     resulting live mapping is feasible over the survivors {e and} still
     specialized;
   - the plan's claimed period matches a from-scratch evaluation, never
     exceeds its own greedy phase, and — when nothing was stranded —
     never worsens the do-nothing incumbent;
   - a [None] (infeasible) verdict is honest: something was stranded,
     and not every stranded task still had a dedicated same-type
     surviving host (such a host stays movable throughout the greedy
     phase, so its existence for all stranded tasks guarantees a plan);
   - finally, replaying {e every} committed move on one
     {!Mf_eval.State} with [apply_move] reaches the live mapping and its
     period, and reloading the original mapping restores its period
     bit-for-bit. *)
let remap_prop (inst, mp, script, budget) =
  let n = Instance.task_count inst and m = Instance.machines inst in
  let wf = Instance.workflow inst in
  let ops = Instances.decode_avail ~machines:m script in
  let down = Array.make m false in
  let live = ref (Mapping.to_array mp) in
  let committed = ref [] in
  let plan_st = State.create inst in
  Array.iter
    (fun op ->
      (match op with
      | Instances.Down u -> down.(u) <- true
      | Instances.Up u -> down.(u) <- false);
      let stranded = Array.exists (fun u -> down.(u)) !live in
      match Plan.repair ~budget plan_st ~mapping:!live ~down with
      | None ->
        check stranded "planner declared infeasibility with nothing stranded";
        (* a machine whose surviving residents are all of one type keeps
           accepting that type for the whole greedy phase, so if every
           stranded task has one the plan cannot fail *)
        let dedicated i =
          let ty = Workflow.ttype wf i in
          let ok = ref false in
          for v = 0 to m - 1 do
            if not down.(v) then begin
              let resident = ref false and foreign = ref false in
              Array.iteri
                (fun j uj ->
                  if j <> i && uj = v then
                    if Workflow.ttype wf j = ty then resident := true
                    else foreign := true)
                !live;
              if !resident && not !foreign then ok := true
            end
          done;
          !ok
        in
        let all_dedicated = ref true in
        Array.iteri
          (fun i u -> if down.(u) && not (dedicated i) then all_dedicated := false)
          !live;
        check (not !all_dedicated)
          "planner declared infeasibility though every stranded task has a \
           dedicated same-type surviving host"
      | Some plan ->
        let next = Array.copy !live in
        Array.iter
          (fun (i, v) ->
            check (0 <= i && i < n) "plan moves unknown task %d" i;
            check (0 <= v && v < m) "plan targets unknown machine %d" v;
            check (not down.(v)) "plan assigns T%d to the down machine M%d" i v;
            next.(i) <- v)
          plan.Plan.moves;
        Array.iteri
          (fun i u -> check (not down.(u)) "plan left T%d on the down machine M%d" i u)
          next;
        check
          (Mapping.satisfies inst (Mapping.of_array inst next) Mapping.Specialized)
          "plan broke the specialized rule";
        let pnew = Period.period inst (Mapping.of_array inst next) in
        check (rel_close plan.Plan.period pnew)
          "plan claims period %.17g but the mapping evaluates to %.17g"
          plan.Plan.period pnew;
        check
          (plan.Plan.period <= plan.Plan.greedy_period *. (1.0 +. 1e-12))
          "refinement worsened the greedy plan: %.17g > %.17g" plan.Plan.period
          plan.Plan.greedy_period;
        if not stranded then begin
          let live_p = Period.period inst (Mapping.of_array inst !live) in
          check
            (plan.Plan.period <= live_p *. (1.0 +. 1e-12))
            "re-map worsened the period vs do-nothing: %.17g > %.17g"
            plan.Plan.period live_p
        end;
        committed := plan.Plan.moves :: !committed;
        live := next)
    ops;
  let st = State.of_mapping inst mp in
  let p0 = State.period st in
  List.iter
    (Array.iter (fun (i, v) -> State.apply_move st ~task:i ~machine:v))
    (List.rev !committed);
  check (State.to_array st = !live) "replaying the committed moves missed the live mapping";
  let live_p = Period.period inst (Mapping.of_array inst !live) in
  check
    (rel_close (State.period st) live_p)
    "replayed period %.17g vs the live mapping's %.17g" (State.period st) live_p;
  State.load_mapping st mp;
  check
    (State.to_array st = Mapping.to_array mp)
    "reload did not restore the original allocation";
  check
    (Int64.bits_of_float (State.period st) = Int64.bits_of_float p0)
    "reload period %h is not bit-identical to the fresh build %h"
    (State.period st) p0;
  State.check st

let remap_oracle =
  Oracle
    {
      name = "remap-safety";
      description =
        "online re-mapper under breakdown/repair scripts: survivor-feasible, \
         rule-preserving, never worse than do-nothing, replay reaches the live \
         mapping";
      quick_cases = 120;
      gen = remap_gen;
      prop = prop_of remap_prop;
      print = (fun (i, m, s, b) -> Instances.print_remap_case i m s ~budget:b);
    }

(* ------------------------------------------------------------------ *)
(* metamorphic: permutation invariance, w-scaling, f-monotonicity       *)
(* ------------------------------------------------------------------ *)

let w_matrix inst =
  let n = Instance.task_count inst and m = Instance.machines inst in
  Array.init n (fun i -> Array.init m (Instance.w inst i))

let f_matrix inst =
  let n = Instance.task_count inst and m = Instance.machines inst in
  Array.init n (fun i -> Array.init m (Instance.f inst i))

let meta_gen =
  let* inst =
    Instances.instance ~max_tasks:6 ~max_machines:4 ~duplicate_machine:true ()
  in
  let* mp = Instances.allocation inst in
  let* idx = permutation_indices (Instance.machines inst) in
  let* k = int_range 0 8 in
  let* task = int_range 0 (Instance.task_count inst - 1) in
  let* bump = int_range 1 8 in
  return (inst, mp, apply_permutation_indices idx, k, task, bump)

let meta_prop (inst, mp, perm, k, task, bump) =
  let n = Instance.task_count inst and m = Instance.machines inst in
  let p = Period.period inst mp in
  let w = w_matrix inst and f = f_matrix inst in
  let wf = Instance.workflow inst in
  (* (a) Renaming machines by any permutation — and the mapping with
     them — changes nothing.  Each machine's Kahan sum sees the same
     operands in the same (task) order, so the equality is bit-exact. *)
  let permute row =
    let out = Array.make m 0.0 in
    Array.iteri (fun u v -> out.(v) <- row.(u)) perm;
    out
  in
  let inst' =
    Instance.create ~workflow:wf ~machines:m ~w:(Array.map permute w)
      ~f:(Array.map permute f)
  in
  let mp' =
    Mapping.of_array inst'
      (Array.map (fun u -> perm.(u)) (Mapping.to_array mp))
  in
  let p' = Period.period inst' mp' in
  check (p' = p) "machine permutation changed the period: %h vs %h" p' p;
  (* Symmetry.machine_classes must agree exactly with bit-identical
     column equality (the generator plants duplicated columns). *)
  let classes = Symmetry.machine_classes inst in
  let columns_equal u v =
    let eq = ref true in
    for i = 0 to n - 1 do
      if w.(i).(u) <> w.(i).(v) || f.(i).(u) <> f.(i).(v) then eq := false
    done;
    !eq
  in
  for u = 0 to m - 1 do
    check (classes.(u) <= u) "class representative %d above member %d" classes.(u) u;
    for v = 0 to m - 1 do
      check
        (classes.(u) = classes.(v) = columns_equal u v)
        "machine_classes disagrees with column equality on (%d, %d)" u v
    done
  done;
  (* (b) Scaling every workload by 2^k scales the period by exactly 2^k:
     every intermediate float scales by a power of two, which only
     shifts exponents. *)
  let scale = Float.ldexp 1.0 k in
  let inst_scaled =
    Instance.create ~workflow:wf ~machines:m
      ~w:(Array.map (Array.map (fun x -> x *. scale)) w)
      ~f
  in
  let p_scaled = Period.period inst_scaled mp in
  check (p_scaled = p *. scale) "w * 2^%d scaled period to %h, expected %h" k p_scaled
    (p *. scale);
  (* (c) Raising the failure rate of the machine actually running [task]
     can only raise the period (never increases throughput). *)
  let u = Mapping.machine mp task in
  let f_raised = Array.map Array.copy f in
  f_raised.(task).(u) <-
    Float.min 0.96875 (f_raised.(task).(u) +. (float_of_int bump /. 64.0));
  let inst_raised = Instance.create ~workflow:wf ~machines:m ~w ~f:f_raised in
  let p_raised = Period.period inst_raised mp in
  check
    (p_raised >= p *. (1.0 -. 1e-12))
    "raising f(%d, %d) to %.6f lowered the period: %.17g -> %.17g" task u
    f_raised.(task).(u) p p_raised

let meta_oracle =
  Oracle
    {
      name = "metamorphic";
      description =
        "machine-permutation invariance, 2^k w-scaling, f-monotonicity";
      quick_cases = 250;
      gen = meta_gen;
      prop = prop_of meta_prop;
      print = (fun (i, m, _, _, _, _) -> Instances.print_with_mapping i m);
    }

(* ------------------------------------------------------------------ *)
(* cache: canonical answer-cache hits vs fresh portfolio solves         *)
(* ------------------------------------------------------------------ *)

module Solver = Mf_solve.Solver
module Portfolio = Mf_solve.Portfolio
module Cache = Mf_solve.Cache

let cache_gen =
  let* inst =
    Instances.instance ~max_tasks:6 ~max_machines:4 ~machines_cover_types:true
      ~duplicate_machine:true ()
  in
  let* midx = permutation_indices (Instance.machines inst) in
  let* tidx = permutation_indices (Instance.type_count inst) in
  return (inst, apply_permutation_indices midx, apply_permutation_indices tidx)

let opt_bits = Option.map Int64.bits_of_float

(* Warm the cache with a near-duplicate (machines permuted, type labels
   relabeled), then solve the original through the cache: the lookup
   must hit, and the answer must be bit-for-bit the fresh no-cache
   solve — same status, same period and bound bits, same mapping, same
   engine trail — with only the cache_hit flag differing. *)
let cache_prop (inst, mperm, tperm) =
  let n = Instance.task_count inst and m = Instance.machines inst in
  let wf = Instance.workflow inst in
  let permute row =
    let out = Array.make m 0.0 in
    Array.iteri (fun u v -> out.(v) <- row.(u)) mperm;
    out
  in
  let inst' =
    Instance.create
      ~workflow:
        (Workflow.in_forest
           ~types:(Array.init n (fun i -> tperm.(Workflow.ttype wf i)))
           ~successor:(Array.init n (Workflow.successor wf)))
      ~machines:m
      ~w:(Array.map permute (w_matrix inst))
      ~f:(Array.map permute (f_matrix inst))
  in
  let req i = Solver.request_exn ~budget:(Solver.Nodes 100_000) i in
  let cache = Cache.create () in
  let warm = Portfolio.solve ~cache (req inst') in
  check (not warm.Solver.stats.Solver.cache_hit) "warm-up solve reported a cache hit";
  let cached = Portfolio.solve ~cache (req inst) in
  let fresh = Portfolio.solve (req inst) in
  check cached.Solver.stats.Solver.cache_hit
    "near-duplicate warm-up did not make the original hit the cache";
  let s = Cache.stats cache in
  check
    (s.Cache.hits = 1 && s.Cache.misses = 1)
    "cache counters: %d hits / %d misses, expected 1 / 1" s.Cache.hits s.Cache.misses;
  check (cached.Solver.status = fresh.Solver.status) "cached status differs from fresh";
  check
    (opt_bits cached.Solver.period = opt_bits fresh.Solver.period)
    "cached period not bit-identical to fresh";
  check
    (opt_bits cached.Solver.lower_bound = opt_bits fresh.Solver.lower_bound)
    "cached lower bound not bit-identical to fresh";
  check
    (Option.map Mapping.to_array cached.Solver.mapping
    = Option.map Mapping.to_array fresh.Solver.mapping)
    "cached mapping differs from fresh";
  check (cached.Solver.engines = fresh.Solver.engines) "cached engine trail differs";
  check
    ({ cached.Solver.stats with Solver.cache_hit = false } = fresh.Solver.stats)
    "cached stats differ from fresh beyond the cache_hit flag";
  (* and the mapped-back answer must actually be a valid mapping of the
     original instance achieving the reported period (1e-9 relative, the
     Dfs convention: its incremental evaluation can sit 1 ulp off the
     from-scratch period) *)
  match (cached.Solver.mapping, cached.Solver.period) with
  | Some mp, Some p ->
    check
      (rel_close (Period.period inst mp) p)
      "cached mapping's period %h does not match reported %h" (Period.period inst mp) p
  | _ -> ()

let cache_oracle =
  Oracle
    {
      name = "cache";
      description =
        "answer-cache hits across machine permutations and type relabelings are \
         bit-identical to fresh portfolio solves";
      quick_cases = 60;
      gen = cache_gen;
      prop = prop_of cache_prop;
      print = (fun (i, _, _) -> Instances.print_instance i);
    }

(* ------------------------------------------------------------------ *)
(* pool: map_array = serial map for every (jobs, chunk), exceptions     *)
(* included                                                             *)
(* ------------------------------------------------------------------ *)

module Mpool = Mf_parallel.Pool

exception Pool_boom of int

(* Pools are created once per size and cached for the whole run, so the
   matrix exercises batch submission and stealing — not domain
   spawn/join churn.  [Mpool.create] (not [shared]) on purpose: [shared]
   clamps to the physical core count, and on a 1-core CI host that would
   quietly reduce every case to the serial fast path, fuzzing nothing. *)
let pool_cache : (int, Mpool.t) Hashtbl.t = Hashtbl.create 4

let pool_for jobs =
  match Hashtbl.find_opt pool_cache jobs with
  | Some p -> p
  | None ->
    let p = Mpool.create ~domains:jobs in
    Hashtbl.add pool_cache jobs p;
    p

let pool_gen =
  let* n = int_range 0 150 in
  let* jobs = int_range 1 4 in
  let* chunk = int_range 1 40 in
  let* fail_mod = int_range 0 7 in
  return (n, jobs, chunk, fail_mod)

let pool_prop (n, jobs, chunk, fail_mod) =
  let input = Array.init n (fun i -> i) in
  let f i = ((i * 31) mod 97) + (i mod (jobs + chunk)) in
  let pool = pool_for jobs in
  let out = Mpool.map_array ~chunk pool ~f input in
  check
    (out = Array.map f input)
    "map_array (jobs=%d, chunk=%d, n=%d) differs from serial map" jobs chunk n;
  (* Non-commutative combine: any ordering leak breaks the equality. *)
  let serial_cat = Array.fold_left (fun acc i -> acc ^ string_of_int (f i)) "" input in
  let pooled_cat =
    Mpool.map_reduce ~chunk pool ~f:(fun i -> string_of_int (f i)) ~combine:( ^ ) ~init:""
      input
  in
  check (pooled_cat = serial_cat) "map_reduce (jobs=%d, chunk=%d, n=%d) out of order" jobs
    chunk n;
  (* Failure injection: the raised exception must be the smallest failing
     index — exactly what serial Array.map would raise — for every
     (jobs, chunk) schedule. *)
  if fail_mod > 0 then begin
    let g i = if i mod fail_mod = fail_mod - 1 then raise (Pool_boom i) else i in
    match Mpool.map_array ~chunk pool ~f:g input with
    | _ ->
      check (fail_mod - 1 >= n)
        "no exception raised (jobs=%d, chunk=%d, n=%d, fail_mod=%d)" jobs chunk n fail_mod
    | exception Pool_boom i ->
      check
        (i = fail_mod - 1)
        "raised index %d, smallest failing is %d (jobs=%d, chunk=%d, n=%d)" i (fail_mod - 1)
        jobs chunk n
  end

let pool_oracle =
  Oracle
    {
      name = "pool";
      description =
        "Pool.map_array/map_reduce = serial for every (jobs, chunk), smallest-index \
         exception included";
      quick_cases = 120;
      gen = pool_gen;
      prop = prop_of pool_prop;
      print =
        (fun (n, jobs, chunk, fail_mod) ->
          Printf.sprintf "n=%d jobs=%d chunk=%d fail_mod=%d" n jobs chunk fail_mod);
    }

(* ------------------------------------------------------------------ *)
(* daemon: random request interleavings over a socketpair               *)
(* ------------------------------------------------------------------ *)

module Dprotocol = Mf_daemon.Protocol
module Dserver = Mf_daemon.Server

(* One wire action: a well-formed solve, a malformed line (with just
   enough framing to stay parseable past it), or a solve immediately
   followed by its CANCEL. *)
type daemon_action =
  | Dgood of Instance.t * int (* node budget *)
  | Dbad of int (* index into [daemon_malformed] *)
  | Dcancel of Instance.t

(* Each entry is the full text to send; every one elicits exactly one
   ERR.  Malformed SOLVE lines carry an immediate [end] so the server's
   block skip consumes one line and framing survives. *)
let daemon_malformed =
  [|
    "NOPE 1\n";
    "SOLVE\nend\n";
    "SOLVE x budget=Z9\nend\n";
    "SOLVE x budget=\nend\n";
    "SOLVE x rule=quantum\nend\n";
    "CANCEL ghost\n";
    "SOLVE x seed=abc\nend\n";
  |]

let daemon_gen =
  let action =
    frequency
      [
        ( 4,
          let* inst = Instances.instance ~max_tasks:6 ~max_machines:3 () in
          let* nodes = int_range 500 50_000 in
          return (Dgood (inst, nodes)) );
        ( 2,
          let* k = int_range 0 (Array.length daemon_malformed - 1) in
          return (Dbad k) );
        ( 2,
          let* inst = Instances.instance ~max_tasks:6 ~max_machines:3 () in
          return (Dcancel inst) );
      ]
  in
  let+ actions = array_sized ~min:1 ~max:5 action in
  Array.to_list actions

let daemon_print actions =
  String.concat "; "
    (List.map
       (function
         | Dgood (inst, nodes) ->
           Printf.sprintf "good(n=%d,m=%d,budget=%d)" (Instance.task_count inst)
             (Instance.machines inst) nodes
         | Dbad k -> Printf.sprintf "bad(%s)" (String.trim daemon_malformed.(k))
         | Dcancel inst ->
           Printf.sprintf "cancel(n=%d,m=%d)" (Instance.task_count inst)
             (Instance.machines inst))
       actions)

let daemon_req inst nodes = Solver.request_exn ~budget:(Solver.Nodes nodes) inst

(* The daemon contract under random interleavings: the server never
   crashes, every request line gets exactly one response, and every
   [OK] is byte-identical to the in-process portfolio solve of the same
   request (modulo the shared-cache [cached] flag). *)
let daemon_prop actions =
  let srv =
    Dserver.create ~config:{ Dserver.jobs = 1; cache_capacity = 64; workers = 2 } ()
  in
  let devnull = open_out "/dev/null" in
  Fun.protect
    ~finally:(fun () ->
      Dserver.shutdown srv devnull;
      close_out devnull)
    (fun () ->
      let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      let reader =
        Thread.create
          (fun () ->
            let ic = Unix.in_channel_of_descr a in
            let oc = Unix.out_channel_of_descr a in
            (try Dserver.serve_client srv ic oc with Sys_error _ | End_of_file -> ());
            try Unix.close a with Unix.Unix_error _ -> ())
          ()
      in
      let ic = Unix.in_channel_of_descr b in
      let oc = Unix.out_channel_of_descr b in
      let send s = output_string oc s in
      (* send the whole interleaving, then QUIT as the drain barrier *)
      let expected_lines =
        List.fold_left
          (fun acc -> function
            | Dgood _ -> acc + 1
            | Dbad _ -> acc + 1
            | Dcancel _ -> acc + 2 (* CANCELOK|ERR + OK|CANCELLED *))
          0 actions
      in
      List.iteri
        (fun i act ->
          match act with
          | Dgood (inst, nodes) ->
            send (Dprotocol.render_solve ~id:(Printf.sprintf "g%d" i) (daemon_req inst nodes))
          | Dbad k -> send daemon_malformed.(k)
          | Dcancel inst ->
            let id = Printf.sprintf "k%d" i in
            send (Dprotocol.render_solve ~id (daemon_req inst 50_000));
            send (Printf.sprintf "CANCEL %s\n" id))
        actions;
      send "QUIT\n";
      flush oc;
      let lines = List.init (expected_lines + 1) (fun _ -> input_line ic) in
      (try Unix.close b with Unix.Unix_error _ -> ());
      Thread.join reader;
      (* exactly one response per request: after [expected_lines]
         responses the next line must be the BYE of the QUIT *)
      let responses, bye =
        match List.rev lines with
        | last :: rev -> (List.rev rev, last)
        | [] -> assert false
      in
      check (bye = "BYE") "expected BYE after %d responses, got %S" expected_lines bye;
      let answers_for id =
        List.filter
          (fun l ->
            match String.split_on_char ' ' l with
            | ("OK" | "ERR" | "CANCELLED" | "CANCELOK") :: rid :: _ -> rid = id
            | _ -> false)
          responses
      in
      List.iteri
        (fun i act ->
          match act with
          | Dgood (inst, nodes) ->
            let id = Printf.sprintf "g%d" i in
            let got = answers_for id in
            check (List.length got = 1) "request %s got %d responses" id (List.length got);
            let expected =
              Dprotocol.render_outcome ~id (Portfolio.solve (daemon_req inst nodes))
            in
            let got = Dprotocol.mask_cached (List.hd got) in
            check (got = expected) "response for %s differs from in-process solve:\n%s\n%s" id
              got expected
          | Dbad _ -> ()
          | Dcancel inst ->
            let id = Printf.sprintf "k%d" i in
            let got = answers_for id in
            check (List.length got = 2) "cancelled request %s got %d responses" id
              (List.length got);
            let solve_answers, cancel_answers =
              List.partition
                (fun l ->
                  String.starts_with ~prefix:"OK " l
                  || String.starts_with ~prefix:"CANCELLED " l)
                got
            in
            check
              (List.length solve_answers = 1)
              "request %s: expected one OK/CANCELLED, got %d" id (List.length solve_answers);
            check
              (List.length cancel_answers = 1)
              "request %s: expected one CANCELOK/ERR, got %d" id (List.length cancel_answers);
            (* a solve that outran its CANCEL must still be exact *)
            List.iter
              (fun l ->
                if String.starts_with ~prefix:"OK " l then
                  let expected =
                    Dprotocol.render_outcome ~id (Portfolio.solve (daemon_req inst 50_000))
                  in
                  check
                    (Dprotocol.mask_cached l = expected)
                    "uncancelled response for %s differs from in-process solve" id)
              solve_answers)
        actions;
      (* the malformed count falls out: everything unclaimed is an ERR *)
      let claimed =
        List.concat_map
          (fun (i, act) ->
            match act with
            | Dgood _ -> answers_for (Printf.sprintf "g%d" i)
            | Dcancel _ -> answers_for (Printf.sprintf "k%d" i)
            | Dbad _ -> [])
          (List.mapi (fun i a -> (i, a)) actions)
      in
      let unclaimed = List.filter (fun l -> not (List.memq l claimed)) responses in
      List.iter
        (fun l ->
          check (String.starts_with ~prefix:"ERR " l) "unclaimed non-error response %S" l)
        unclaimed)

let daemon_oracle =
  Oracle
    {
      name = "daemon";
      description =
        "random interleavings of well-formed, malformed and cancelled requests over a \
         socketpair: no crash, one response per request, OK lines byte-identical to \
         in-process solves";
      quick_cases = 30;
      gen = daemon_gen;
      prop = prop_of daemon_prop;
      print = daemon_print;
    }

(* ------------------------------------------------------------------ *)
(* Matrix plumbing                                                      *)
(* ------------------------------------------------------------------ *)

let all =
  [
    eval_oracle;
    heuristics_oracle;
    exact_oracle;
    lp_oracle;
    warm_start_oracle;
    sim_oracle;
    simbd_oracle;
    remap_oracle;
    meta_oracle;
    cache_oracle;
    pool_oracle;
    daemon_oracle;
  ]

let find n = List.find_opt (fun o -> name o = n) all

let outcome_of ~name ~print (r : _ Prop.report) =
  {
    oracle = name;
    cases = r.Prop.cases;
    failed =
      Option.map
        (fun (f : _ Prop.failure) ->
          {
            case_index = f.Prop.case_index;
            case_seed = f.Prop.case_seed;
            shrink_steps = f.Prop.shrink_steps;
            message = f.Prop.message;
            repr = print f.Prop.value;
          })
        r.Prop.failure;
  }

let run ?count ~seed (Oracle o) =
  let count = Option.value count ~default:o.quick_cases in
  outcome_of ~name:o.name ~print:o.print
    (Prop.check ~count ~name:o.name ~seed o.gen o.prop)

let replay (Oracle o) ~case_seed =
  outcome_of ~name:o.name ~print:o.print
    (Prop.check_case ~name:o.name ~case_seed o.gen o.prop)

(* ------------------------------------------------------------------ *)
(* Canary                                                               *)
(* ------------------------------------------------------------------ *)

(* A local copy of the product-count recurrence with the success
   probability sign flipped — the mutation the harness must catch and
   shrink (never called by production code). *)
let buggy_period inst mp =
  let wf = Instance.workflow inst in
  let n = Instance.task_count inst in
  let x = Array.make n 0.0 in
  Array.iter
    (fun i ->
      let u = Mapping.machine mp i in
      let factor = 1.0 /. (1.0 +. Instance.f inst i u) in
      let downstream =
        match Workflow.successor wf i with None -> 1.0 | Some j -> x.(j)
      in
      x.(i) <- downstream *. factor)
    (Workflow.backward_order wf);
  let loads = Array.make (Instance.machines inst) 0.0 in
  for i = 0 to n - 1 do
    let u = Mapping.machine mp i in
    loads.(u) <- loads.(u) +. (x.(i) *. Instance.w inst i u)
  done;
  Array.fold_left Float.max 0.0 loads

let canary_gen =
  let* inst = Instances.instance ~max_tasks:8 ~max_machines:4 () in
  let* mp = Instances.allocation inst in
  return (inst, mp)

let canary_prop (inst, mp) =
  let reference = Period.period inst mp in
  let buggy = buggy_period inst mp in
  check (rel_close buggy reference)
    "mutated-sign evaluation %.17g disagrees with Period.period %.17g" buggy reference

let canary =
  Oracle
    {
      name = "canary";
      description = "injected-bug self-test: a 1/(1+f) period copy must be caught";
      quick_cases = 50;
      gen = canary_gen;
      prop = prop_of canary_prop;
      print = (fun (i, m) -> Instances.print_with_mapping i m);
    }

let canary_check ~seed =
  let r = Prop.check ~count:50 ~name:"canary" ~seed canary_gen (prop_of canary_prop) in
  match r.Prop.failure with
  | None -> Error "canary evaluation bug was NOT caught"
  | Some f ->
    let inst, _ = f.Prop.value in
    Ok (Instance.task_count inst, Instance.machines inst)

(* A second injected bug, for the dynamic layer: a re-mapper whose
   refinement forgets the availability filter.  The greedy phase
   (correct) empties the dead machine, which leaves it with load 0 —
   the most attractive target of the descent that follows, here run
   with every machine up — so the planner re-assigns work to a machine
   that is down.  The remap-safety discipline (never assign to a down
   machine) must catch it and shrink the repro.  Never called by
   production code. *)
let buggy_remap inst ~mapping ~down =
  let st = State.create inst in
  match Plan.repair st ~mapping ~down with
  | None -> None
  | Some _ ->
    (* the bug: an all-up mask instead of [down] *)
    let all_up = Array.make (Array.length down) false in
    ignore (Local_search.descend ~budget:Plan.default_budget ~down:all_up st);
    Some (State.to_array st)

let remap_canary_gen =
  let* inst =
    Instances.instance ~min_tasks:2 ~max_tasks:6 ~min_machines:2 ~max_machines:3
      ~machines_cover_types:true ()
  in
  let* mp = Instances.specialized_allocation inst in
  let* dead = int_range 0 (Instance.machines inst - 1) in
  return (inst, mp, dead)

let remap_canary_prop (inst, mp, dead) =
  let m = Instance.machines inst in
  let down = Array.make m false in
  down.(dead) <- true;
  match buggy_remap inst ~mapping:(Mapping.to_array mp) ~down with
  | None -> ()
  | Some next ->
    Array.iteri
      (fun i u -> check (not down.(u)) "re-mapper left T%d on the dead machine M%d" i u)
      next

let remap_canary_print (inst, mp, dead) =
  Printf.sprintf "%sdead machine M%d\n" (Instances.print_with_mapping inst mp) dead

let remap_canary =
  Oracle
    {
      name = "remap-canary";
      description =
        "injected-bug self-test: a re-mapper refinement missing the down filter \
         must be caught";
      quick_cases = 50;
      gen = remap_canary_gen;
      prop = prop_of remap_canary_prop;
      print = remap_canary_print;
    }

let remap_canary_check ~seed =
  let r =
    Prop.check ~count:50 ~name:"remap-canary" ~seed remap_canary_gen
      (prop_of remap_canary_prop)
  in
  match r.Prop.failure with
  | None -> Error "remap down-machine bug was NOT caught"
  | Some f ->
    let inst, _, _ = f.Prop.value in
    Ok (Instance.task_count inst, Instance.machines inst)
