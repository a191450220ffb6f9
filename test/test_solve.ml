(* Unified solver tests: the portfolio-differential suite (portfolio vs
   standalone engines under equal budgets over the shared deterministic
   instance family), request/engine unit tests, and the canonical answer
   cache. *)

module Instance = Mf_core.Instance
module Workflow = Mf_core.Workflow
module Mapping = Mf_core.Mapping
module Period = Mf_core.Period
module Canon = Mf_core.Canon
module Solver = Mf_solve.Solver
module Engine = Mf_solve.Engine
module Portfolio = Mf_solve.Portfolio
module Cache = Mf_solve.Cache
module Dfs = Mf_exact.Dfs
module Brute = Mf_exact.Brute
module Gen = Mf_workload.Gen
module Rng = Mf_prng.Rng

let differential_instance = Mf_proptest.Instances.differential_instance

let chain ~tasks ~types ~machines seed =
  Gen.chain (Rng.create seed) (Gen.default ~tasks ~types ~machines)

let opt_bits = Option.map Int64.bits_of_float
let bits = Int64.bits_of_float

let check_outcomes_identical msg (a : Solver.outcome) (b : Solver.outcome) =
  Alcotest.(check bool) (msg ^ ": status") true (a.Solver.status = b.Solver.status);
  Alcotest.(check bool)
    (msg ^ ": period bits")
    true
    (opt_bits a.Solver.period = opt_bits b.Solver.period);
  Alcotest.(check bool)
    (msg ^ ": lower bound bits")
    true
    (opt_bits a.Solver.lower_bound = opt_bits b.Solver.lower_bound);
  Alcotest.(check bool)
    (msg ^ ": mapping")
    true
    (Option.map Mapping.to_array a.Solver.mapping
    = Option.map Mapping.to_array b.Solver.mapping);
  Alcotest.(check bool) (msg ^ ": engines") true (a.Solver.engines = b.Solver.engines)

(* ------------------------------------------------------------------ *)
(* portfolio-differential: portfolio vs standalone engines              *)
(* ------------------------------------------------------------------ *)

(* Over the shared deterministic family (chains and in-trees, n <= 8,
   m <= 4), under an equal node budget large enough to prove optimality:
   the portfolio must return Optimal with the brute-force period (1e-9
   relative, the Dfs convention) and bit-for-bit the standalone exact
   engine's period. *)
let test_portfolio_vs_engines rule () =
  let budget = Solver.Nodes 500_000 in
  for i = 1 to 60 do
    let inst = differential_instance ~rule i in
    let req = Solver.request_exn ~rule ~budget inst in
    let out = Portfolio.solve req in
    let name = Printf.sprintf "(%s, i=%d)" (Mapping.rule_name rule) i in
    Alcotest.(check bool)
      (Printf.sprintf "portfolio optimal %s: %s" name
         (Solver.status_to_string out.Solver.status))
      true
      (out.Solver.status = Solver.Optimal);
    let p = Option.get out.Solver.period in
    let _, expected =
      match rule with
      | Mapping.Specialized -> Brute.specialized inst
      | Mapping.General -> Brute.general inst
      | Mapping.One_to_one -> Brute.one_to_one inst
    in
    Alcotest.(check bool)
      (Printf.sprintf "portfolio = brute %s: %.9g vs %.9g" name p expected)
      true
      (Float.abs (p -. expected) <= 1e-9 *. expected);
    let standalone = Engine.exact req in
    Alcotest.(check bool)
      (Printf.sprintf "portfolio = standalone exact %s (bit-for-bit)" name)
      true
      (opt_bits out.Solver.period = opt_bits standalone.Solver.period);
    (* the anytime answer never loses to the heuristic stage alone *)
    let h = Engine.heuristics req in
    Alcotest.(check bool)
      (Printf.sprintf "portfolio <= heuristics %s" name)
      true
      (p <= Option.get h.Solver.period);
    let mp = Option.get out.Solver.mapping in
    Alcotest.(check bool)
      (Printf.sprintf "mapping satisfies rule %s" name)
      true (Mapping.satisfies inst mp rule)
  done

let test_portfolio_specialized () = test_portfolio_vs_engines Mapping.Specialized ()
let test_portfolio_general () = test_portfolio_vs_engines Mapping.General ()
let test_portfolio_one_to_one () = test_portfolio_vs_engines Mapping.One_to_one ()

(* A fixed request replays bit-for-bit — including through a machine
   permutation of the instance (the canonical frame absorbs it). *)
let test_portfolio_deterministic () =
  for i = 1 to 20 do
    let inst = differential_instance ~rule:Mapping.Specialized i in
    let req = Solver.request_exn ~budget:(Solver.Nodes 100_000) inst in
    check_outcomes_identical
      (Printf.sprintf "replay (i=%d)" i)
      (Portfolio.solve req) (Portfolio.solve req)
  done

(* Under a budget too small to finish the search, the status is honest
   and the anytime answer is still a valid mapping. *)
let test_portfolio_anytime () =
  let inst = chain ~tasks:14 ~types:4 ~machines:6 7 in
  (* enough for heuristics + LP, not for the exact search *)
  let out = Portfolio.solve (Solver.request_exn ~budget:(Solver.Nodes 9_000) inst) in
  (match out.Solver.status with
  | Solver.Feasible gap -> Alcotest.(check bool) "gap >= 0" true (gap >= 0.0)
  | Solver.Optimal -> ()
  | s -> Alcotest.failf "unexpected status %s" (Solver.status_to_string s));
  let mp = Option.get out.Solver.mapping in
  Alcotest.(check bool) "anytime mapping valid" true
    (Mapping.satisfies inst mp Mapping.Specialized);
  (* heuristics-only budget: no bound, explicitly exhausted *)
  let tiny = Portfolio.solve (Solver.request_exn ~budget:(Solver.Nodes 1) inst) in
  Alcotest.(check bool) "tiny budget exhausted" true
    (tiny.Solver.status = Solver.Budget_exhausted);
  Alcotest.(check bool) "tiny budget still answers" true
    (Option.is_some tiny.Solver.mapping);
  Alcotest.(check bool) "tiny budget ran heuristics only" true
    (tiny.Solver.engines = [ Solver.Heuristics ])

(* want_certificate forces the LP stage even under a heuristics-only
   budget, so the answer carries a certified bound. *)
let test_portfolio_certificate () =
  let inst = chain ~tasks:14 ~types:4 ~machines:6 7 in
  let out =
    Portfolio.solve (Solver.request_exn ~budget:(Solver.Nodes 1) ~want_certificate:true inst)
  in
  Alcotest.(check bool) "certificate present" true (Option.is_some out.Solver.lower_bound);
  (match out.Solver.status with
  | Solver.Optimal | Solver.Feasible _ -> ()
  | s -> Alcotest.failf "unexpected status %s" (Solver.status_to_string s));
  let lb = Option.get out.Solver.lower_bound in
  let p = Option.get out.Solver.period in
  Alcotest.(check bool) "bound below answer" true (lb <= p)

(* ------------------------------------------------------------------ *)
(* solver: request validation, budgets, engine adapters                 *)
(* ------------------------------------------------------------------ *)

let test_request_validation () =
  let inst = chain ~tasks:4 ~types:2 ~machines:3 1 in
  let raises f =
    match f () with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "negative deadline" true
    (raises (fun () -> Solver.request_exn ~budget:(Solver.Deadline_ms (-1.0)) inst));
  Alcotest.(check bool) "zero nodes" true
    (raises (fun () -> Solver.request_exn ~budget:(Solver.Nodes 0) inst));
  Alcotest.(check bool) "negative setup" true
    (raises (fun () -> Solver.request_exn ~setup:(-1.0) inst));
  Alcotest.(check bool) "defaults fine" true
    (match Solver.request_exn inst with _ -> true)

(* The typed constructor reports the same rejections [request_exn]
   raises, as values — one case per [request_error] variant, NaN
   included (NaN must never enter the solver: it is unordered, so it
   would slip through every downstream comparison). *)
let test_make_request_errors () =
  let inst = chain ~tasks:4 ~types:2 ~machines:3 1 in
  let check_error label expect result =
    Alcotest.(check bool) label true
      (match result with Error e -> expect e | Ok _ -> false)
  in
  let is_bad_deadline = function Solver.Bad_deadline _ -> true | _ -> false in
  let is_bad_nodes = function Solver.Bad_node_budget _ -> true | _ -> false in
  let is_bad_setup = function Solver.Bad_setup _ -> true | _ -> false in
  check_error "NaN deadline" is_bad_deadline
    (Solver.make_request ~budget:(Solver.Deadline_ms nan) inst);
  check_error "zero deadline" is_bad_deadline
    (Solver.make_request ~budget:(Solver.Deadline_ms 0.0) inst);
  check_error "negative deadline" is_bad_deadline
    (Solver.make_request ~budget:(Solver.Deadline_ms (-3.0)) inst);
  check_error "zero node budget" is_bad_nodes
    (Solver.make_request ~budget:(Solver.Nodes 0) inst);
  check_error "negative node budget" is_bad_nodes
    (Solver.make_request ~budget:(Solver.Nodes (-7)) inst);
  check_error "NaN setup" is_bad_setup (Solver.make_request ~setup:nan inst);
  check_error "negative setup" is_bad_setup (Solver.make_request ~setup:(-0.5) inst);
  Alcotest.(check bool) "every error describable" true
    (List.for_all
       (fun e -> String.length (Solver.describe_request_error e) > 0)
       [ Solver.Bad_deadline nan; Solver.Bad_node_budget 0; Solver.Bad_setup (-1.0) ]);
  Alcotest.(check bool) "valid request accepted" true
    (Result.is_ok (Solver.make_request ~budget:(Solver.Deadline_ms 5.0) ~setup:1.5 inst))

(* Overflow guard regressions: huge and infinite deadlines clamp to
   [max_node_allowance] instead of collapsing through [int_of_float]
   overflow (which used to turn a 1e300 ms deadline into a 1-node
   budget). *)
let test_node_allowance_clamp () =
  let cap = Solver.max_node_allowance in
  Alcotest.(check bool) "1e300 deadline clamps" true
    (Solver.node_allowance (Solver.Deadline_ms 1e300) = Some cap);
  Alcotest.(check bool) "infinite deadline clamps" true
    (Solver.node_allowance (Solver.Deadline_ms infinity) = Some cap);
  Alcotest.(check bool) "just above the clamp boundary" true
    (Solver.node_allowance (Solver.Deadline_ms (2.0 *. float_of_int cap /. Solver.nodes_per_ms))
    = Some cap);
  Alcotest.(check bool) "huge node budget clamps" true
    (Solver.node_allowance (Solver.Nodes max_int) = Some cap);
  Alcotest.(check bool) "node budget at the cap" true
    (Solver.node_allowance (Solver.Nodes cap) = Some cap);
  Alcotest.(check bool) "node budget below the cap passes through" true
    (Solver.node_allowance (Solver.Nodes (cap - 1)) = Some (cap - 1));
  (* the cap itself stays comfortably inside the int range so arithmetic
     like [nodes + charged >= budget] cannot overflow *)
  Alcotest.(check bool) "cap leaves headroom" true (cap < max_int / 64)

let test_node_allowance () =
  Alcotest.(check bool) "unlimited" true (Solver.node_allowance Solver.Unlimited = None);
  Alcotest.(check bool) "nodes pass through" true
    (Solver.node_allowance (Solver.Nodes 123) = Some 123);
  Alcotest.(check bool) "deadline scales" true
    (Solver.node_allowance (Solver.Deadline_ms 10.0)
    = Some (int_of_float (10.0 *. Solver.nodes_per_ms)));
  (* any positive deadline grants at least one node *)
  Alcotest.(check bool) "tiny deadline" true
    (Solver.node_allowance (Solver.Deadline_ms 1e-9) = Some 1)

let test_engine_infeasible () =
  (* m = 2 < p = 3: specialized infeasible; m = 5 < n = 6: oto infeasible *)
  let inst = chain ~tasks:6 ~types:3 ~machines:2 3 in
  List.iter
    (fun (label, out) ->
      Alcotest.(check bool) label true (out.Solver.status = Solver.Infeasible);
      Alcotest.(check bool) (label ^ " no mapping") true (out.Solver.mapping = None))
    [
      ("heuristics m<p", Engine.heuristics (Solver.request_exn inst));
      ("exact m<p", Engine.exact (Solver.request_exn inst));
      ("brute m<p", Engine.brute (Solver.request_exn inst));
      ("portfolio m<p", Portfolio.solve (Solver.request_exn inst));
      ( "heuristics m<n oto",
        Engine.heuristics (Solver.request_exn ~rule:Mapping.One_to_one inst) );
      ("portfolio m<n oto", Portfolio.solve (Solver.request_exn ~rule:Mapping.One_to_one inst));
    ]

(* General rule stays feasible below m < p: the single-machine fallback. *)
let test_general_below_p () =
  let inst = chain ~tasks:6 ~types:3 ~machines:2 3 in
  let out = Portfolio.solve (Solver.request_exn ~rule:Mapping.General inst) in
  Alcotest.(check bool) "general m<p solves" true (out.Solver.status = Solver.Optimal);
  let mp = Option.get out.Solver.mapping in
  Alcotest.(check bool) "mapping valid" true (Mapping.satisfies inst mp Mapping.General);
  let _, expected = Brute.general inst in
  let p = Option.get out.Solver.period in
  Alcotest.(check bool)
    (Printf.sprintf "matches brute: %.9g vs %.9g" p expected)
    true
    (Float.abs (p -. expected) <= 1e-9 *. expected)

(* The heuristic stage is [Dfs.seed_incumbent] at the request's seed,
   bit for bit, on one request per branch of its rule match; each also
   pins the mapping, period and run count the stage reported before it
   delegated (registry best re-scored through [Solver.score] under
   general with setup: [Period.with_setup] adds exactly 0.0 on a
   one-type machine). *)
let test_heuristics_is_seed_incumbent () =
  let module Registry = Mf_heuristics.Registry in
  let seed = 7 in
  let spec = chain ~tasks:12 ~types:3 ~machines:5 4 in
  let below_p = chain ~tasks:8 ~types:4 ~machines:3 5 in
  let oto = chain ~tasks:6 ~types:2 ~machines:8 6 in
  let registry req =
    let mp, _ = Registry.best ~seed req.Solver.instance in
    ((mp, Solver.score req mp), List.length Registry.all)
  in
  List.iter
    (fun (name, req, expected) ->
      let out = Engine.heuristics req in
      let (seed_mp, seed_p), seed_runs =
        Dfs.seed_incumbent ~seed:req.Solver.seed ~setup:req.Solver.setup req.Solver.rule
          req.Solver.instance
      in
      let (mp, p), runs = expected req in
      let alloc = Option.map Mapping.to_array out.Solver.mapping in
      Alcotest.(check (option (array int))) (name ^ ": mapping = seed_incumbent")
        (Some (Mapping.to_array seed_mp)) alloc;
      Alcotest.(check (option int64)) (name ^ ": period = seed_incumbent")
        (Some (bits seed_p)) (opt_bits out.Solver.period);
      Alcotest.(check int) (name ^ ": runs = seed_incumbent") seed_runs
        out.Solver.stats.Solver.heuristic_runs;
      Alcotest.(check (option (array int))) (name ^ ": mapping pinned")
        (Some (Mapping.to_array mp)) alloc;
      Alcotest.(check (option int64)) (name ^ ": period pinned") (Some (bits p))
        (opt_bits out.Solver.period);
      Alcotest.(check int) (name ^ ": runs pinned") runs out.Solver.stats.Solver.heuristic_runs)
    [
      ("specialized", Solver.request_exn ~seed spec, registry);
      ( "general m >= p, setup 50",
        Solver.request_exn ~rule:Mapping.General ~seed ~setup:50.0 spec,
        registry );
      ( "general m < p",
        Solver.request_exn ~rule:Mapping.General ~seed ~setup:50.0 below_p,
        fun _ -> (Dfs.best_single_machine ~setup:50.0 below_p, 3) );
      ( "one-to-one",
        Solver.request_exn ~rule:Mapping.One_to_one ~seed oto,
        fun _ ->
          let mp = Dfs.greedy_one_to_one oto in
          ((mp, Period.period oto mp), 1) );
    ]

let test_engine_lp_statuses () =
  let inst = chain ~tasks:6 ~types:3 ~machines:4 5 in
  (* one-to-one: bound only, no rounding *)
  let oto = Engine.lp (Solver.request_exn ~rule:Mapping.One_to_one inst) in
  (match oto.Solver.status with
  | Solver.Bound_only lb ->
    Alcotest.(check bool) "bound positive" true (lb > 0.0);
    Alcotest.(check bool) "no mapping" true (oto.Solver.mapping = None)
  | s -> Alcotest.failf "oto lp status %s" (Solver.status_to_string s));
  (* specialized: rounding succeeds, gap against the shaved bound *)
  let sp = Engine.lp (Solver.request_exn inst) in
  (match sp.Solver.status with
  | Solver.Optimal | Solver.Feasible _ -> ()
  | s -> Alcotest.failf "specialized lp status %s" (Solver.status_to_string s));
  let lb = Option.get sp.Solver.lower_bound in
  let p = Option.get sp.Solver.period in
  Alcotest.(check bool) "lp bound below rounded period" true (lb <= p);
  Alcotest.(check bool) "lp counted pivots" true (sp.Solver.stats.Solver.lp_pivots > 0);
  Alcotest.(check bool) "lp path recorded" true
    (sp.Solver.stats.Solver.lp_path <> Solver.No_lp);
  (* the shaved bound really is below the exact optimum *)
  let exact = Dfs.specialized inst in
  Alcotest.(check bool)
    (Printf.sprintf "shaved bound %.9g <= optimum %.9g" lb exact.Dfs.period)
    true (lb <= exact.Dfs.period)

(* ------------------------------------------------------------------ *)
(* cache: keys, hits, eviction                                          *)
(* ------------------------------------------------------------------ *)

let test_cache_key_sensitivity () =
  let inst = chain ~tasks:5 ~types:2 ~machines:3 11 in
  let canon = Canon.canonicalize inst in
  let base = Solver.request_exn inst in
  let key = Cache.request_key canon base in
  List.iter
    (fun (label, req) ->
      Alcotest.(check bool) label true (Cache.request_key canon req <> key))
    [
      ("rule", Solver.request_exn ~rule:Mapping.General inst);
      ("seed", Solver.request_exn ~seed:42 inst);
      ("setup", Solver.request_exn ~setup:1.5 inst);
      ("budget", Solver.request_exn ~budget:(Solver.Nodes 10) inst);
      ("certificate", Solver.request_exn ~want_certificate:true inst);
    ];
  Alcotest.(check bool) "same request, same key" true
    (Cache.request_key canon (Solver.request_exn inst) = key)

let test_cache_hit_bit_identical () =
  let inst = chain ~tasks:8 ~types:3 ~machines:4 13 in
  let cache = Cache.create () in
  let req = Solver.request_exn ~budget:(Solver.Nodes 100_000) inst in
  let fresh = Portfolio.solve ~cache req in
  Alcotest.(check bool) "first solve misses" true
    (not fresh.Solver.stats.Solver.cache_hit);
  let hit = Portfolio.solve ~cache req in
  Alcotest.(check bool) "second solve hits" true hit.Solver.stats.Solver.cache_hit;
  check_outcomes_identical "hit vs fresh" hit fresh;
  Alcotest.(check bool) "stats identical modulo flag" true
    ({ hit.Solver.stats with Solver.cache_hit = false } = fresh.Solver.stats);
  let s = Cache.stats cache in
  Alcotest.(check int) "hits" 1 s.Cache.hits;
  Alcotest.(check int) "misses" 1 s.Cache.misses

(* A machine-permuted copy of the instance hits the entry its original
   populated, and maps back to the permuted frame correctly. *)
let test_cache_hit_across_permutation () =
  let inst = chain ~tasks:8 ~types:3 ~machines:4 17 in
  let n = Instance.task_count inst and m = Instance.machines inst in
  let wf = Instance.workflow inst in
  let perm u = (u + 1) mod m in
  let permuted =
    Instance.create ~workflow:wf ~machines:m
      ~w:(Array.init n (fun i -> Array.init m (fun u -> Instance.w inst i (perm u))))
      ~f:(Array.init n (fun i -> Array.init m (fun u -> Instance.f inst i (perm u))))
  in
  let cache = Cache.create () in
  let budget = Solver.Nodes 100_000 in
  let out0 = Portfolio.solve ~cache (Solver.request_exn ~budget inst) in
  let out1 = Portfolio.solve ~cache (Solver.request_exn ~budget permuted) in
  Alcotest.(check bool) "permuted request hits" true out1.Solver.stats.Solver.cache_hit;
  Alcotest.(check bool) "periods bit-identical" true
    (opt_bits out0.Solver.period = opt_bits out1.Solver.period);
  let mp = Option.get out1.Solver.mapping in
  Alcotest.(check bool) "mapped-back mapping valid on permuted instance" true
    (Mapping.satisfies permuted mp Mapping.Specialized);
  Alcotest.(check bool)
    "mapped-back period matches on the permuted instance (bit-for-bit)" true
    (bits (Period.period permuted mp) = bits (Period.period inst (Option.get out0.Solver.mapping)))

let test_cache_eviction () =
  let cache = Cache.create ~capacity:2 () in
  let budget = Solver.Nodes 50_000 in
  let insts = List.init 3 (fun k -> chain ~tasks:5 ~types:2 ~machines:3 (100 + k)) in
  List.iter (fun i -> ignore (Portfolio.solve ~cache (Solver.request_exn ~budget i))) insts;
  let s = Cache.stats cache in
  Alcotest.(check int) "capacity bounds entries" 2 s.Cache.length;
  Alcotest.(check int) "one eviction" 1 s.Cache.evictions;
  (* the evicted (oldest) instance misses; the two recent ones hit *)
  let hit i =
    (Portfolio.solve ~cache (Solver.request_exn ~budget i)).Solver.stats.Solver.cache_hit
  in
  match insts with
  | [ a; b; c ] ->
    Alcotest.(check bool) "recent entries hit" true (hit c && hit b);
    Alcotest.(check bool) "oldest evicted" false (hit a)
  | _ -> assert false

let () =
  Alcotest.run "solve"
    [
      ( "portfolio-differential",
        [
          Alcotest.test_case "specialized vs engines (60)" `Quick test_portfolio_specialized;
          Alcotest.test_case "general vs engines (60)" `Quick test_portfolio_general;
          Alcotest.test_case "one-to-one vs engines (60)" `Quick test_portfolio_one_to_one;
          Alcotest.test_case "deterministic replay" `Quick test_portfolio_deterministic;
          Alcotest.test_case "anytime under budget" `Quick test_portfolio_anytime;
          Alcotest.test_case "certificate forces LP" `Quick test_portfolio_certificate;
        ] );
      ( "solver",
        [
          Alcotest.test_case "request validation" `Quick test_request_validation;
          Alcotest.test_case "typed request errors" `Quick test_make_request_errors;
          Alcotest.test_case "node allowance" `Quick test_node_allowance;
          Alcotest.test_case "node allowance overflow clamp" `Quick test_node_allowance_clamp;
          Alcotest.test_case "infeasible rules" `Quick test_engine_infeasible;
          Alcotest.test_case "general below p" `Quick test_general_below_p;
          Alcotest.test_case "heuristics = seed_incumbent" `Quick
            test_heuristics_is_seed_incumbent;
          Alcotest.test_case "lp statuses" `Quick test_engine_lp_statuses;
        ] );
      ( "cache",
        [
          Alcotest.test_case "key sensitivity" `Quick test_cache_key_sensitivity;
          Alcotest.test_case "hit bit-identical" `Quick test_cache_hit_bit_identical;
          Alcotest.test_case "hit across permutation" `Quick test_cache_hit_across_permutation;
          Alcotest.test_case "lru eviction" `Quick test_cache_eviction;
        ] );
    ]
