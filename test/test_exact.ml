(* Tests for mf_exact: brute force, branch-and-bound DFS, one-to-one optima. *)

module Instance = Mf_core.Instance
module Workflow = Mf_core.Workflow
module Mapping = Mf_core.Mapping
module Period = Mf_core.Period
module Brute = Mf_exact.Brute
module Dfs = Mf_exact.Dfs
module Oto = Mf_exact.Oto
module Gen = Mf_workload.Gen
module Rng = Mf_prng.Rng

let chain_instance ?(seed = 1) ~n ~p ~m () =
  Gen.chain (Rng.create seed) (Gen.default ~tasks:n ~types:p ~machines:m)

(* ------------------------------------------------------------------ *)
(* Brute force                                                         *)
(* ------------------------------------------------------------------ *)

let test_brute_single_task () =
  let wf = Workflow.chain ~types:[| 0 |] in
  let inst =
    Instance.create ~workflow:wf ~machines:3
      ~w:[| [| 100.0; 50.0; 200.0 |] |]
      ~f:[| [| 0.0; 0.5; 0.0 |] |]
  in
  (* M0: 100; M1: 50/(1-0.5)=100; M2: 200. Optimal is 100 (M0 or M1). *)
  let mp, p = Brute.specialized inst in
  Alcotest.(check (float 1e-9)) "period" 100.0 p;
  Alcotest.(check bool) "machine" true (Mapping.machine mp 0 <> 2)

let test_brute_rules_ordering () =
  (* General <= specialized <= one-to-one optimal periods. *)
  for seed = 1 to 5 do
    let inst = chain_instance ~seed ~n:4 ~p:2 ~m:4 () in
    let _, p_gen = Brute.general inst in
    let _, p_spec = Brute.specialized inst in
    let _, p_oto = Brute.one_to_one inst in
    Alcotest.(check bool) "gen <= spec" true (p_gen <= p_spec +. 1e-9);
    Alcotest.(check bool) "spec <= oto" true (p_spec <= p_oto +. 1e-9)
  done

let test_brute_one_to_one_requires_machines () =
  let inst = chain_instance ~n:4 ~p:2 ~m:3 () in
  Alcotest.check_raises "m < n"
    (Invalid_argument "Brute.one_to_one: fewer machines than tasks") (fun () ->
      ignore (Brute.one_to_one inst))

(* ------------------------------------------------------------------ *)
(* DFS branch-and-bound                                                *)
(* ------------------------------------------------------------------ *)

let test_dfs_matches_brute () =
  for seed = 1 to 15 do
    let inst = chain_instance ~seed ~n:6 ~p:2 ~m:3 () in
    let _, expected = Brute.specialized inst in
    let r = Dfs.specialized inst in
    Alcotest.(check bool) (Printf.sprintf "optimal flag (seed %d)" seed) true r.Dfs.optimal;
    Alcotest.(check (float 1e-6)) (Printf.sprintf "period (seed %d)" seed) expected r.Dfs.period;
    Alcotest.(check bool) "mapping valid" true
      (Mapping.satisfies inst r.Dfs.mapping Mapping.Specialized);
    Alcotest.(check (float 1e-6)) "period consistent with mapping" r.Dfs.period
      (Period.period inst r.Dfs.mapping)
  done

let test_dfs_matches_brute_on_trees () =
  for seed = 1 to 10 do
    let inst =
      Gen.in_tree (Rng.create seed) (Gen.default ~tasks:6 ~types:2 ~machines:3)
    in
    let _, expected = Brute.specialized inst in
    let r = Dfs.specialized inst in
    Alcotest.(check (float 1e-6)) (Printf.sprintf "tree period (seed %d)" seed) expected
      r.Dfs.period
  done

let test_dfs_node_budget () =
  let inst = chain_instance ~seed:2 ~n:14 ~p:3 ~m:6 () in
  let r = Dfs.specialized ~node_budget:10 inst in
  Alcotest.(check bool) "budget exhausted" false r.Dfs.optimal;
  (* Even with a tiny budget we still hold the heuristic incumbent. *)
  Alcotest.(check bool) "mapping valid" true
    (Mapping.satisfies inst r.Dfs.mapping Mapping.Specialized)

(* A caller's incumbent is the search's seed, not merged with the
   registry's: handed a valid mapping strictly worse than
   [Registry.best] and one node of budget, the search can complete no
   mapping and must hand the caller's pair back unchanged. *)
let test_dfs_incumbent_is_the_seed () =
  let inst = chain_instance ~seed:2 ~n:14 ~p:3 ~m:6 () in
  let ((_, best_p) as best) = Mf_heuristics.Registry.best inst in
  let mp, p =
    List.fold_left
      (fun ((_, wp) as acc) h ->
        let mp = Mf_heuristics.Registry.solve h inst in
        let p = Period.period inst mp in
        if p > wp then (mp, p) else acc)
      best Mf_heuristics.Registry.all
  in
  Alcotest.(check bool) "incumbent strictly worse than the registry best" true (p > best_p);
  let r = Dfs.solve ~node_budget:1 ~incumbent:(mp, p) ~rule:Mapping.Specialized inst in
  Alcotest.(check bool) "not optimal" false r.Dfs.optimal;
  Alcotest.(check (array int)) "the caller's mapping" (Mapping.to_array mp)
    (Mapping.to_array r.Dfs.mapping);
  Alcotest.(check int64) "the caller's period" (Int64.bits_of_float p)
    (Int64.bits_of_float r.Dfs.period)

let test_dfs_beats_or_matches_heuristics () =
  for seed = 1 to 8 do
    let inst = chain_instance ~seed ~n:10 ~p:3 ~m:5 () in
    let r = Dfs.specialized inst in
    List.iter
      (fun h ->
        let p = Period.period inst (Mf_heuristics.Registry.solve h inst) in
        Alcotest.(check bool)
          (Printf.sprintf "opt <= %s (seed %d)" (Mf_heuristics.Registry.name h) seed)
          true
          (r.Dfs.period <= p +. 1e-6))
      Mf_heuristics.Registry.all
  done

(* ------------------------------------------------------------------ *)
(* One-to-one optima                                                   *)
(* ------------------------------------------------------------------ *)

let homogeneous_chain ~seed ~n ~m =
  let rng = Rng.create seed in
  let types = Array.init n Fun.id in
  (* All types distinct -> type-consistency is vacuous; homogeneous w. *)
  let w = Array.make_matrix n m 100.0 in
  let f =
    Array.init n (fun _ -> Array.init m (fun _ -> Mf_prng.Rng.uniform rng ~lo:0.01 ~hi:0.3))
  in
  Instance.create ~workflow:(Workflow.chain ~types) ~machines:m ~w ~f

let test_theorem1_matches_brute () =
  for seed = 1 to 10 do
    let inst = homogeneous_chain ~seed ~n:5 ~m:6 in
    let _, expected = Brute.one_to_one inst in
    let mp, p = Oto.theorem1 inst in
    Alcotest.(check bool) "one-to-one" true (Mapping.satisfies inst mp Mapping.One_to_one);
    Alcotest.(check (float 1e-6)) (Printf.sprintf "optimal (seed %d)" seed) expected p
  done

let test_theorem1_preconditions () =
  let inst = chain_instance ~n:3 ~p:2 ~m:4 () in
  Alcotest.check_raises "needs homogeneous machines"
    (Invalid_argument "Oto.theorem1: machines must be homogeneous") (fun () ->
      ignore (Oto.theorem1 inst))

let task_attached_chain ~seed ~n ~m =
  let rng = Rng.create seed in
  let params =
    { (Gen.default ~tasks:n ~types:n ~machines:m) with task_attached_failures = true }
  in
  ignore rng;
  Gen.chain (Rng.create seed) params

let test_bottleneck_matches_brute () =
  for seed = 1 to 10 do
    let inst = task_attached_chain ~seed ~n:5 ~m:6 in
    let _, expected = Brute.one_to_one inst in
    let mp, p = Oto.bottleneck inst in
    Alcotest.(check bool) "one-to-one" true (Mapping.satisfies inst mp Mapping.One_to_one);
    Alcotest.(check (float 1e-6)) (Printf.sprintf "optimal (seed %d)" seed) expected p;
    Alcotest.(check (float 1e-6)) "period consistent" p (Period.period inst mp)
  done

let test_bottleneck_preconditions () =
  let inst = chain_instance ~n:3 ~p:2 ~m:4 () in
  Alcotest.check_raises "needs task-attached failures"
    (Invalid_argument "Oto.bottleneck: failure rates must be attached to tasks only")
    (fun () -> ignore (Oto.bottleneck inst))

(* Specialized mappings can only improve on one-to-one: with more freedom
   (grouping) the optimal period can only go down. *)
let test_specialized_at_least_as_good_as_oto () =
  for seed = 1 to 5 do
    let inst = task_attached_chain ~seed ~n:5 ~m:6 in
    let _, p_oto = Oto.bottleneck inst in
    let r = Dfs.specialized inst in
    Alcotest.(check bool) (Printf.sprintf "spec opt <= oto opt (seed %d)" seed) true
      (r.Dfs.period <= p_oto +. 1e-6)
  done

(* ------------------------------------------------------------------ *)
(* DFS under the other mapping rules                                   *)
(* ------------------------------------------------------------------ *)

let test_dfs_general_matches_brute () =
  for seed = 1 to 8 do
    let inst = chain_instance ~seed ~n:5 ~p:2 ~m:3 () in
    let _, expected = Brute.general inst in
    let r = Dfs.general inst in
    Alcotest.(check (float 1e-6)) (Printf.sprintf "general (seed %d)" seed) expected r.Dfs.period
  done

let test_dfs_one_to_one_matches_brute () =
  for seed = 1 to 8 do
    let inst = chain_instance ~seed ~n:5 ~p:2 ~m:6 () in
    let _, expected = Brute.one_to_one inst in
    let r = Dfs.one_to_one inst in
    Alcotest.(check (float 1e-6)) (Printf.sprintf "one-to-one (seed %d)" seed) expected
      r.Dfs.period;
    Alcotest.(check bool) "valid one-to-one" true
      (Mapping.satisfies inst r.Dfs.mapping Mapping.One_to_one)
  done

let test_dfs_rule_ordering () =
  (* general opt <= specialized opt <= one-to-one opt. *)
  for seed = 1 to 5 do
    let inst = chain_instance ~seed ~n:5 ~p:2 ~m:6 () in
    let g = (Dfs.general inst).Dfs.period in
    let s = (Dfs.specialized inst).Dfs.period in
    let o = (Dfs.one_to_one inst).Dfs.period in
    Alcotest.(check bool) (Printf.sprintf "g <= s (seed %d)" seed) true (g <= s +. 1e-9);
    Alcotest.(check bool) (Printf.sprintf "s <= o (seed %d)" seed) true (s <= o +. 1e-9)
  done

let test_dfs_one_to_one_requires_machines () =
  let inst = chain_instance ~n:5 ~p:2 ~m:3 () in
  Alcotest.check_raises "m < n"
    (Invalid_argument "Dfs: fewer machines than tasks - no one-to-one mapping exists")
    (fun () -> ignore (Dfs.one_to_one inst))

let test_dfs_general_setup_crossover () =
  for seed = 1 to 5 do
    let inst = chain_instance ~seed ~n:6 ~p:3 ~m:3 () in
    let spec = (Dfs.specialized inst).Dfs.period in
    (* Free reconfiguration: general can only help. *)
    let free = Dfs.general ~setup:0.0 inst in
    Alcotest.(check bool) "free general <= specialized" true
      (free.Dfs.period <= spec +. 1e-9);
    (* Ruinous reconfiguration: the optimum avoids mixing types, so it is
       exactly the specialized optimum. *)
    let ruinous = Dfs.general ~setup:1.0e7 inst in
    Alcotest.(check bool)
      (Printf.sprintf "ruinous general %.1f = specialized %.1f (seed %d)" ruinous.Dfs.period
         spec seed)
      true
      (Float.abs (ruinous.Dfs.period -. spec) <= 1e-6 *. spec);
    (* The reported period accounts for the penalty. *)
    let mid = Dfs.general ~setup:100.0 inst in
    Alcotest.(check (float 1e-6)) "penalised period consistent"
      (Mf_core.Period.with_setup inst mid.Dfs.mapping ~setup:100.0)
      mid.Dfs.period
  done

(* Pins the setup-accounting convention: on a 2-type/1-machine instance the
   single machine hosts both types and cycles back to the first every
   period, so the exact search and Period.with_setup must both charge two
   switches. *)
let test_dfs_general_setup_cyclic_convention () =
  let wf = Workflow.chain ~types:[| 0; 1 |] in
  let inst =
    Instance.create ~workflow:wf ~machines:1
      ~w:[| [| 100.0 |]; [| 200.0 |] |]
      ~f:[| [| 0.2 |]; [| 0.1 |] |]
  in
  let setup = 50.0 in
  let r = Dfs.general ~setup inst in
  let mp = Mapping.of_array inst [| 0; 0 |] in
  (* x_1 = 1/0.9, x_0 = x_1/0.8; load = x_0*100 + x_1*200, plus 2 switches. *)
  let x1 = 1.0 /. 0.9 in
  let x0 = x1 /. 0.8 in
  let expected = (x0 *. 100.0) +. (x1 *. 200.0) +. (2.0 *. setup) in
  Alcotest.(check bool) "optimal" true r.Dfs.optimal;
  Alcotest.(check (float 1e-9)) "with_setup charges the cycle" expected
    (Mf_core.Period.with_setup inst mp ~setup);
  Alcotest.(check (float 1e-9)) "dfs reports the same penalised period" expected r.Dfs.period;
  Alcotest.(check (float 1e-9)) "dfs mapping agrees with with_setup"
    (Mf_core.Period.with_setup inst r.Dfs.mapping ~setup)
    r.Dfs.period

(* Cross-solver consistency properties. *)

let arb_small_setup =
  QCheck.make
    ~print:(fun (seed, n, p, m) -> Printf.sprintf "seed=%d n=%d p=%d m=%d" seed n p m)
    QCheck.Gen.(
      let* seed = int_range 0 10000 in
      let* n = int_range 2 6 in
      let* p = int_range 1 (min n 3) in
      let* m = int_range p 3 in
      return (seed, n, p, m))

let prop_dfs_agrees_with_brute =
  QCheck.Test.make ~name:"exact: dfs = brute on random tiny instances" ~count:60
    arb_small_setup (fun (seed, n, p, m) ->
      let inst = chain_instance ~seed ~n ~p ~m () in
      let _, expected = Brute.specialized inst in
      Float.abs ((Dfs.specialized inst).Dfs.period -. expected) <= 1e-6 *. expected)

let prop_oto_bottleneck_equals_dfs =
  QCheck.Test.make ~name:"exact: matching one-to-one optimum = dfs one-to-one" ~count:40
    (QCheck.make
       ~print:(fun (seed, n) -> Printf.sprintf "seed=%d n=%d" seed n)
       QCheck.Gen.(
         let* seed = int_range 0 10000 in
         let* n = int_range 2 5 in
         return (seed, n)))
    (fun (seed, n) ->
      let inst = task_attached_chain ~seed ~n ~m:(n + 1) in
      let _, matching = Oto.bottleneck inst in
      let dfs = (Dfs.one_to_one inst).Dfs.period in
      Float.abs (matching -. dfs) <= 1e-6 *. matching)

let prop_splitting_lp_below_general_exact =
  QCheck.Test.make ~name:"exact: splitting LP <= general optimum <= specialized optimum"
    ~count:40 arb_small_setup (fun (seed, n, p, m) ->
      let inst = chain_instance ~seed ~n ~p ~m () in
      let lp =
        match Mf_lp.Splitting.solve inst with
        | Ok r -> r.Mf_lp.Splitting.period
        | Error e -> failwith (Mf_lp.Splitting.describe_error e)
      in
      let general = (Dfs.general inst).Dfs.period in
      let special = (Dfs.specialized inst).Dfs.period in
      lp <= general *. (1.0 +. 1e-6) && general <= special *. (1.0 +. 1e-6))

(* ------------------------------------------------------------------ *)
(* Branch-and-bound differential suite: the full engine (every pruning  *)
(* rule on) against brute force, and against itself with pruning off.   *)
(* ------------------------------------------------------------------ *)

(* Deterministic shapes covering chains and in-trees, n <= 8, m <= 4 —
   the family lives in Mf_proptest.Instances so the fuzz driver and this
   suite enumerate the same pool. *)
let differential_instance = Mf_proptest.Instances.differential_instance

let brute_of_rule = function
  | Mapping.Specialized -> Brute.specialized
  | Mapping.General -> Brute.general ?setup:None
  | Mapping.One_to_one -> Brute.one_to_one

(* 200 instances per rule: the all-pruning engine must reproduce the
   brute-force optimum, and never explore more nodes than itself with
   dominance and symmetry off. *)
let test_differential rule () =
  for i = 1 to 200 do
    let inst = differential_instance ~rule i in
    let _, expected = brute_of_rule rule inst in
    let pruned = Dfs.solve ~dominance:true ~symmetry:true ~rule inst in
    let unpruned = Dfs.solve ~dominance:false ~symmetry:false ~rule inst in
    Alcotest.(check bool)
      (Printf.sprintf "optimal flag (%s, i=%d)" (Mapping.rule_name rule) i)
      true pruned.Dfs.optimal;
    Alcotest.(check bool)
      (Printf.sprintf "pruned = brute (%s, i=%d): %.9g vs %.9g" (Mapping.rule_name rule) i
         pruned.Dfs.period expected)
      true
      (Float.abs (pruned.Dfs.period -. expected) <= 1e-9 *. expected);
    Alcotest.(check bool)
      (Printf.sprintf "pruned nodes <= unpruned nodes (%s, i=%d)" (Mapping.rule_name rule) i)
      true
      (pruned.Dfs.nodes <= unpruned.Dfs.nodes);
    Alcotest.(check bool)
      (Printf.sprintf "mapping valid (%s, i=%d)" (Mapping.rule_name rule) i)
      true
      (Mapping.satisfies inst pruned.Dfs.mapping rule);
    Alcotest.(check bool)
      (Printf.sprintf "period consistent (%s, i=%d)" (Mapping.rule_name rule) i)
      true
      (Float.abs (Period.period inst pruned.Dfs.mapping -. pruned.Dfs.period)
      <= 1e-9 *. pruned.Dfs.period)
  done

let test_differential_specialized () = test_differential Mapping.Specialized ()
let test_differential_general () = test_differential Mapping.General ()
let test_differential_one_to_one () = test_differential Mapping.One_to_one ()

(* General rule with a reconfiguration penalty, against the brute-force
   oracle evaluating Period.with_setup. *)
let test_differential_general_setup () =
  for i = 1 to 60 do
    let inst = differential_instance ~rule:Mapping.General i in
    let setup = [| 25.0; 100.0; 400.0 |].(i mod 3) in
    let _, expected = Brute.general ~setup inst in
    let r = Dfs.solve ~setup ~dominance:true ~symmetry:true ~rule:Mapping.General inst in
    Alcotest.(check bool)
      (Printf.sprintf "setup differential (i=%d, setup=%.0f): %.9g vs %.9g" i setup r.Dfs.period
         expected)
      true
      (Float.abs (r.Dfs.period -. expected) <= 1e-9 *. expected);
    Alcotest.(check bool) "penalised period consistent" true
      (Float.abs (Period.with_setup inst r.Dfs.mapping ~setup -. r.Dfs.period)
      <= 1e-9 *. r.Dfs.period)
  done

(* --jobs must not change anything observable: every subtree search is a
   pure function of its inputs, and the reported mapping is the incumbent
   carried across the deterministic rounds.  Besides the shared pool
   [mfopt exact --jobs 4] passes, an explicitly created 3-domain pool
   runs the search because [Pool.shared] clamps to the physical core
   count — on a 1-core CI host only the external pool actually exercises
   workers and stealing. *)
let test_jobs_identity () =
  Mf_parallel.Pool.with_pool ~domains:3 (fun pool ->
      List.iter
        (fun (seed, n, p, m) ->
          let inst = chain_instance ~seed ~n ~p ~m () in
          let r1 = Dfs.solve ~rule:Mapping.Specialized inst in
          let r4 =
            Dfs.solve ~pool:(Mf_parallel.Pool.shared ~domains:4) ~rule:Mapping.Specialized
              inst
          in
          let rp = Dfs.solve ~pool ~rule:Mapping.Specialized inst in
          Alcotest.(check bool) (Printf.sprintf "optimal (seed %d)" seed) true r1.Dfs.optimal;
          Alcotest.(check bool)
            (Printf.sprintf "period bit-identical (seed %d): %h vs %h" seed r1.Dfs.period
               r4.Dfs.period)
            true
            (r1.Dfs.period = r4.Dfs.period);
          Alcotest.(check bool)
            (Printf.sprintf "mapping identical (seed %d)" seed)
            true
            (Mapping.to_array r1.Dfs.mapping = Mapping.to_array r4.Dfs.mapping);
          Alcotest.(check bool)
            (Printf.sprintf "period bit-identical via external pool (seed %d)" seed)
            true
            (r1.Dfs.period = rp.Dfs.period);
          Alcotest.(check bool)
            (Printf.sprintf "mapping identical via external pool (seed %d)" seed)
            true
            (Mapping.to_array r1.Dfs.mapping = Mapping.to_array rp.Dfs.mapping))
        [ (1, 12, 3, 5); (2, 13, 3, 4); (3, 14, 2, 5); (4, 11, 4, 6); (5, 12, 3, 6) ])

(* Budget-exhausted multi-round runs: a re-run of the subtree holding the
   incumbent is seeded with its own best period, so it can never re-find
   the corresponding leaf and its recorded result carries no allocation.
   The incumbent (period, allocation) pair must therefore be carried
   monotonically across rounds — on these (seed, n, m, budget)
   configurations the previous aggregation, which re-derived the pair
   from the final per-subtree results, crashed on [assert false]. *)
let test_exhausted_rerun_keeps_incumbent () =
  List.iter
    (fun (seed, n, m, budget) ->
      let inst = chain_instance ~seed ~n ~p:3 ~m () in
      let r = Dfs.solve ~node_budget:budget ~rule:Mapping.Specialized inst in
      Alcotest.(check bool) (Printf.sprintf "non-optimal (seed %d)" seed) false r.Dfs.optimal;
      Alcotest.(check bool)
        (Printf.sprintf "mapping valid (seed %d)" seed)
        true
        (Mapping.satisfies inst r.Dfs.mapping Mapping.Specialized);
      Alcotest.(check bool)
        (Printf.sprintf "period consistent with mapping (seed %d)" seed)
        true
        (Float.abs (Period.period inst r.Dfs.mapping -. r.Dfs.period) <= 1e-9 *. r.Dfs.period);
      (* The reported allocation comes out of the deterministic round
         structure, so exhaustion must not break the --jobs identity.
         An explicit pool, not the shared one: see [test_jobs_identity]. *)
      let r4 =
        Mf_parallel.Pool.with_pool ~domains:4 (fun pool ->
            Dfs.solve ~node_budget:budget ~pool ~rule:Mapping.Specialized inst)
      in
      Alcotest.(check bool)
        (Printf.sprintf "period bit-identical under exhaustion (seed %d)" seed)
        true
        (r.Dfs.period = r4.Dfs.period);
      Alcotest.(check bool)
        (Printf.sprintf "mapping identical under exhaustion (seed %d)" seed)
        true
        (Mapping.to_array r.Dfs.mapping = Mapping.to_array r4.Dfs.mapping))
    [ (1, 14, 6, 16_000); (3, 14, 6, 4_000); (4, 14, 6, 8_000) ]

(* An in-tree whose same-type siblings share bit-identical failure rows:
   frontier signatures collide, so the dominance table must both fire and
   preserve the optimum; the auto policy must switch it on by itself. *)
let dominance_forest () =
  let n = 14 and m = 5 and p = 3 in
  let types = Array.init n (fun i -> i / 2 mod p) in
  let successor = Array.init n (fun i -> if i mod 2 = 0 then Some (i + 1) else None) in
  let wf = Workflow.in_forest ~types ~successor in
  let rng = Rng.create 11 in
  let wcol =
    Array.init p (fun _ -> Array.init m (fun _ -> 100.0 +. (900.0 *. Rng.float rng 1.0)))
  in
  let w = Array.init n (fun i -> Array.copy wcol.(types.(i))) in
  let f = Array.init n (fun _ -> Array.make m 0.01) in
  Instance.create ~workflow:wf ~machines:m ~w ~f

let test_dominance_fires () =
  let inst = dominance_forest () in
  let off = Dfs.solve ~dominance:false ~rule:Mapping.Specialized inst in
  let on = Dfs.solve ~dominance:true ~rule:Mapping.Specialized inst in
  let auto = Dfs.solve ~rule:Mapping.Specialized inst in
  Alcotest.(check bool) "dominance prunes something" true
    (on.Dfs.stats.Dfs.dominance_prunes > 0);
  Alcotest.(check bool) "fewer nodes with dominance" true (on.Dfs.nodes < off.Dfs.nodes);
  Alcotest.(check bool) "same optimum bit-for-bit" true (on.Dfs.period = off.Dfs.period);
  Alcotest.(check bool) "auto policy enables the table" true
    (auto.Dfs.stats.Dfs.dominance_prunes > 0)

(* Machines 0=1 and 2=3 are bit-identical: symmetry breaking must skip
   branches yet keep the brute-force optimum. *)
let test_symmetry_fires () =
  let n = 7 and m = 4 and p = 2 in
  let rng = Rng.create 3 in
  let types = Array.init n (fun i -> i mod p) in
  let wf = Workflow.chain ~types in
  let half ty = 100.0 +. (500.0 *. Rng.float rng 1.0) +. (37.0 *. float_of_int ty) in
  let wA = Array.init p (fun ty -> half ty) and wB = Array.init p (fun ty -> half ty) in
  let w = Array.init n (fun i ->
      let a = wA.(types.(i)) and b = wB.(types.(i)) in
      [| a; a; b; b |])
  in
  let f = Array.init n (fun i ->
      let fa = 0.005 +. (0.002 *. float_of_int (i mod 5)) in
      let fb = 0.006 +. (0.003 *. float_of_int (i mod 4)) in
      [| fa; fa; fb; fb |])
  in
  let inst = Instance.create ~workflow:wf ~machines:m ~w ~f in
  Alcotest.(check bool) "classes detected" true (Mf_exact.Symmetry.has_machine_symmetry inst);
  let _, expected = Brute.specialized inst in
  let on = Dfs.solve ~symmetry:true ~rule:Mapping.Specialized inst in
  let off = Dfs.solve ~symmetry:false ~rule:Mapping.Specialized inst in
  Alcotest.(check bool) "symmetry skips branches" true (on.Dfs.stats.Dfs.symmetry_skips > 0);
  Alcotest.(check bool) "fewer nodes with symmetry" true (on.Dfs.nodes <= off.Dfs.nodes);
  Alcotest.(check bool) "matches brute" true
    (Float.abs (on.Dfs.period -. expected) <= 1e-9 *. expected);
  Alcotest.(check bool) "matches unbroken search bit-for-bit" true
    (on.Dfs.period = off.Dfs.period)

(* The previous-generation engine must agree with the new one — they share
   nothing but the problem definition, so this is a strong differential. *)
let test_static_agrees_with_bnb () =
  for seed = 1 to 25 do
    let inst = chain_instance ~seed ~n:10 ~p:3 ~m:5 () in
    let st = Dfs.solve_static ~rule:Mapping.Specialized inst in
    let bb = Dfs.solve ~rule:Mapping.Specialized inst in
    Alcotest.(check bool)
      (Printf.sprintf "static = bnb (seed %d): %.9g vs %.9g" seed st.Dfs.period bb.Dfs.period)
      true
      (Float.abs (st.Dfs.period -. bb.Dfs.period) <= 1e-9 *. st.Dfs.period)
  done

(* ------------------------------------------------------------------ *)
(* Theorem 2: the 3-PARTITION reduction, executed                       *)
(* ------------------------------------------------------------------ *)

module Reduction = Mf_exact.Reduction

let test_reduction_shape () =
  let p = { Reduction.z = [| 1; 2; 3; 2; 2; 2 |]; target = 6 } in
  let inst = Reduction.build p in
  (* k = 2 chains of 3 plus the shared final task: 7 tasks, 7 machines. *)
  Alcotest.(check int) "tasks" 7 (Instance.task_count inst);
  Alcotest.(check int) "machines" 7 (Instance.machines inst);
  let wf = Instance.workflow inst in
  Alcotest.(check (list int)) "single sink" [ 6 ] (Workflow.sinks wf);
  Alcotest.(check (list int)) "join of chains" [ 2; 5 ] (Workflow.predecessors wf 6);
  (* Machine failure rates are (2^z - 1)/2^z, last machine perfect. *)
  Alcotest.(check (float 1e-15)) "f of z=1 machine" 0.5 (Instance.f inst 0 0);
  Alcotest.(check (float 1e-15)) "f of z=3 machine" 0.875 (Instance.f inst 0 2);
  Alcotest.(check (float 0.0)) "perfect machine" 0.0 (Instance.f inst 0 6);
  Alcotest.(check (float 0.0)) "unit costs" 1.0 (Instance.w inst 3 4);
  Alcotest.(check (float 0.0)) "threshold" 64.0 (Reduction.threshold p)

let test_reduction_solvable_instances () =
  (* {1,2,3, 2,2,2}: triples (1,2,3) and (2,2,2) both sum to 6. *)
  let yes = { Reduction.z = [| 1; 2; 3; 2; 2; 2 |]; target = 6 } in
  Alcotest.(check bool) "brute says yes" true (Reduction.brute_force_3partition yes);
  Alcotest.(check bool) "oracle says yes" true (Reduction.solvable_by_oracle yes)

let test_reduction_unsolvable_instances () =
  (* {1,1,1, 3,3,3} with target 6: no triple mixes to exactly 6
     (1+1+1 = 3, 1+1+3 = 5, 1+3+3 = 7, 3+3+3 = 9). *)
  let no = { Reduction.z = [| 1; 1; 1; 3; 3; 3 |]; target = 6 } in
  Alcotest.(check bool) "brute says no" false (Reduction.brute_force_3partition no);
  Alcotest.(check bool) "oracle says no" false (Reduction.solvable_by_oracle no)

let test_reduction_validation () =
  Alcotest.check_raises "bad length" (Invalid_argument "Reduction: need 3k integers")
    (fun () -> Reduction.validate { Reduction.z = [| 1; 2 |]; target = 3 });
  Alcotest.check_raises "bad sum"
    (Invalid_argument "Reduction: integers must sum to k * target") (fun () ->
      Reduction.validate { Reduction.z = [| 1; 2; 3 |]; target = 7 })

let prop_reduction_equivalence =
  (* Random small 3-PARTITION instances: the oracle must agree with the
     direct brute force - Theorem 2's equivalence, executed. *)
  QCheck.Test.make ~name:"reduction: oracle decides 3-PARTITION" ~count:25
    (QCheck.make
       ~print:(fun z -> String.concat "," (List.map string_of_int (Array.to_list z)))
       QCheck.Gen.(
         let* k = int_range 1 2 in
         let* z = array_repeat (3 * k) (int_range 1 5) in
         return z))
    (fun z ->
      let sum = Array.fold_left ( + ) 0 z in
      let k = Array.length z / 3 in
      QCheck.assume (sum mod k = 0);
      let p = { Reduction.z; target = sum / k } in
      Reduction.solvable_by_oracle p = Reduction.brute_force_3partition p)

(* ------------------------------------------------------------------ *)
(* Per-node LP bound oracle (Mf_lp.Node_bound behind Dfs.node_bound)   *)
(* ------------------------------------------------------------------ *)

module Node_bound = Mf_lp.Node_bound

let nb_oracle t =
  {
    Dfs.nb_push = (fun ~task ~machine -> Node_bound.push t ~task ~machine);
    nb_pop = (fun () -> Node_bound.pop t);
    nb_bound = (fun ~cutoff -> Node_bound.bound t ~cutoff);
    nb_pivots = (fun () -> (Node_bound.stats t).Node_bound.pivots);
  }

(* Exact best completion of a partial assignment ([-1] = unassigned)
   under [rule], by exhaustive enumeration: the ground truth the LP
   bound must never exceed. *)
let best_completion inst ~rule ~assigned =
  let m = Instance.machines inst in
  let order = Workflow.backward_order (Instance.workflow inst) in
  let free =
    Array.to_list order |> List.filter (fun i -> assigned.(i) < 0)
  in
  let best = ref infinity in
  let rec go = function
    | [] ->
        let mp = Mapping.of_array inst (Array.copy assigned) in
        if Mapping.satisfies inst mp rule then
          best := Float.min !best (Period.period inst mp)
    | t :: rest ->
        for u = 0 to m - 1 do
          assigned.(t) <- u;
          go rest;
          assigned.(t) <- -1
        done
  in
  go free;
  !best

(* At every prefix of the optimal mapping's assignment path:
   - a value that reaches its cutoff must be a true lower bound on the
     best completion (soundness);
   - with a cutoff strictly above the best completion the oracle can
     never prune (so the search never cuts the optimum while the
     incumbent is still beatable). *)
let test_node_bound_sound_never_prunes_optimum () =
  let rule = Mapping.Specialized in
  for seed = 1 to 6 do
    let inst = chain_instance ~seed ~n:6 ~p:2 ~m:3 () in
    let opt_mp, _ = Brute.specialized inst in
    let order = Workflow.backward_order (Instance.workflow inst) in
    let n = Instance.task_count inst in
    (* The root certified bound every node LP must dominate: a node's
       reduced LP is the root relaxation plus lock restrictions, so its
       feasible set only shrinks and the period bound only rises. *)
    let root_bound =
      match Mf_lp.Splitting.solve inst with
      | Ok r -> r.Mf_lp.Splitting.period
      | Error _ -> Alcotest.fail "splitting LP failed on generated instance"
    in
    let t = Node_bound.create ~rule inst in
    let assigned = Array.make n (-1) in
    for k = 0 to n - 2 do
      let task = order.(k) in
      let machine = Mapping.machine opt_mp task in
      Node_bound.push t ~task ~machine;
      assigned.(task) <- machine;
      let truth = best_completion inst ~rule ~assigned in
      let name what =
        Printf.sprintf "seed %d depth %d: %s" seed (k + 1) what
      in
      Alcotest.(check bool) (name "prefix completable") true (Float.is_finite truth);
      (* Soundness at a beatable cutoff. *)
      let cutoff = 0.9 *. truth in
      let b = Node_bound.bound t ~cutoff in
      if b >= cutoff then begin
        Alcotest.(check bool)
          (Printf.sprintf "%s (bound %.9g > truth %.9g)" (name "bound sound") b truth)
          true
          (b <= truth *. (1. +. 1e-6));
        Alcotest.(check bool)
          (Printf.sprintf "%s (bound %.9g < root %.9g)" (name "dominates root bound") b
             root_bound)
          true
          (b >= root_bound *. (1. -. 1e-6))
      end;
      (* No pruning when the best completion beats the cutoff. *)
      let above = truth *. (1. +. 1e-3) in
      let b2 = Node_bound.bound t ~cutoff:above in
      Alcotest.(check bool)
        (Printf.sprintf "%s (bound %.9g vs %.9g)" (name "optimum survives") b2 above)
        true (b2 < above)
    done
  done

(* Two oracles fed the identical push/bound/pop sequence answer
   bit-identically — the determinism the --jobs identity contract
   rests on (each subtree gets its own oracle from the factory). *)
let test_node_bound_deterministic_replay () =
  let rule = Mapping.Specialized in
  let inst = chain_instance ~seed:3 ~n:8 ~p:2 ~m:4 () in
  let order = Workflow.backward_order (Instance.workflow inst) in
  let n = Instance.task_count inst in
  let replay () =
    let t = Node_bound.create ~rule inst in
    let out = ref [] in
    let rng = Rng.create 99 in
    (* Depth-first excursion pattern: push, bound, sometimes pop and
       re-push a sibling — the shape of the real search's journal. *)
    for k = 0 to n - 1 do
      let task = order.(k) in
      let u1 = Rng.int rng 4 in
      Node_bound.push t ~task ~machine:u1;
      out := Node_bound.bound t ~cutoff:(100.0 +. float_of_int k) :: !out;
      Node_bound.pop t;
      let u2 = Rng.int rng 4 in
      Node_bound.push t ~task ~machine:u2;
      out := Node_bound.bound t ~cutoff:(200.0 +. float_of_int k) :: !out
    done;
    (!out, Node_bound.stats t)
  in
  let o1, s1 = replay () in
  let o2, s2 = replay () in
  List.iteri
    (fun i (a, b) ->
      Alcotest.(check bool)
        (Printf.sprintf "replay value %d identical (%h vs %h)" i a b)
        true
        (Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)))
    (List.combine o1 o2);
  Alcotest.(check int) "replay solves identical" s1.Node_bound.solves s2.Node_bound.solves;
  Alcotest.(check int) "replay pivots identical" s1.Node_bound.pivots s2.Node_bound.pivots

(* Warm starts change the work, never the answer: along a fixed
   push/pop walk on an exact-close chain (p=3, m=5, n=14, specialized),
   the long-lived oracle — warm-started from sibling bases, from the
   depth above's mapped basis, and repaired where the locks empty a
   column — returns at every prefix the bound a fresh oracle computes
   cold at that prefix, and never needs the all-artificial restart. *)
let test_node_bound_warm_matches_fresh () =
  let rule = Mapping.Specialized in
  let inst = chain_instance ~seed:1 ~n:14 ~p:3 ~m:5 () in
  let order = Workflow.backward_order (Instance.workflow inst) in
  let n = Instance.task_count inst and m = Instance.machines inst in
  let wf = Instance.workflow inst in
  let t = Node_bound.create ~rule inst in
  let rng = Rng.create 2026 in
  (* The walk's prefix as (task, machine, locked the machine) triples,
     deepest first, and the machine dedications it implies (a
     specialized completion must exist). *)
  let prefix = ref [] in
  let dedicated = Array.make m (-1) in
  let close a b =
    a = b || Float.abs (a -. b) <= 1e-9 *. Float.max 1.0 (Float.max (Float.abs a) (Float.abs b))
  in
  for step = 1 to 160 do
    let depth = List.length !prefix in
    if depth > 0 && (depth = n - 1 || Rng.int rng 100 < 35) then begin
      (match !prefix with
      | (_, u, fresh_lock) :: rest ->
        if fresh_lock then dedicated.(u) <- -1;
        prefix := rest
      | [] -> assert false);
      Node_bound.pop t
    end
    else begin
      let task = order.(depth) in
      let ty = Workflow.ttype wf task in
      let allowed = List.filter (fun u -> dedicated.(u) < 0 || dedicated.(u) = ty) (List.init m Fun.id) in
      let u = List.nth allowed (Rng.int rng (List.length allowed)) in
      let fresh_lock = dedicated.(u) < 0 in
      if fresh_lock then dedicated.(u) <- ty;
      prefix := (task, u, fresh_lock) :: !prefix;
      Node_bound.push t ~task ~machine:u
    end;
    (* An infinite cutoff never lets the pigeonhole pre-check decide; the
       specialized enumeration stops at its first variant, in the same
       order for both oracles. *)
    if !prefix <> [] then begin
      let warm = Node_bound.bound t ~cutoff:infinity in
      let fresh =
        let f = Node_bound.create ~rule inst in
        List.iter (fun (task, machine, _) -> Node_bound.push f ~task ~machine) (List.rev !prefix);
        Node_bound.bound f ~cutoff:infinity
      in
      if not (close warm fresh) then
        Alcotest.fail
          (Printf.sprintf "step %d (depth %d): warm bound %.17g vs fresh %.17g" step
             (List.length !prefix) warm fresh)
    end
  done;
  let s = Node_bound.stats t in
  Alcotest.(check int) "no all-artificial restarts" 0 s.Node_bound.fallbacks;
  Alcotest.(check bool)
    (Printf.sprintf "walk exercised warm starts (%d of %d solves)" s.Node_bound.warm_starts
       s.Node_bound.solves)
    true
    (s.Node_bound.warm_starts > s.Node_bound.solves / 2);
  Alcotest.(check bool)
    (Printf.sprintf "walk exercised basis repair (%d repairs)" s.Node_bound.repairs)
    true (s.Node_bound.repairs > 0)

(* One LP, one answer: with nothing pushed the node LP is the root
   splitting LP, written by the same builder, so the root node bound is
   [Splitting.solve]'s period deflated by the node safety factor, bit
   for bit.  In-trees carry the weight: their rate columns hold several
   predecessor entries, whose order two builders could write
   differently (on chains it does not show). *)
let test_node_bound_root_is_splitting () =
  let check name inst =
    let period =
      match Mf_lp.Splitting.solve inst with
      | Ok r -> r.Mf_lp.Splitting.period
      | Error e -> Alcotest.failf "%s: %s" name (Mf_lp.Splitting.describe_error e)
    in
    let root = Node_bound.bound (Node_bound.create ~rule:Mapping.General inst) ~cutoff:infinity in
    let want = period *. (1.0 -. 1e-6) in
    if not (Int64.equal (Int64.bits_of_float root) (Int64.bits_of_float want)) then
      Alcotest.failf "%s: root node bound %h, splitting period x (1 - 1e-6) %h" name root want
  in
  List.iter
    (fun n ->
      check (Printf.sprintf "chain n=%d" n)
        (Gen.chain (Rng.create 1) (Gen.default ~tasks:n ~types:4 ~machines:8)))
    [ 20; 50; 200 ];
  List.iter
    (fun n ->
      for seed = 1 to 5 do
        check
          (Printf.sprintf "in-tree n=%d seed %d" n seed)
          (Gen.in_tree (Rng.create seed) (Gen.default ~tasks:n ~types:3 ~machines:6))
      done)
    [ 8; 20; 60; 120 ]

let test_node_bound_push_order_contract () =
  let inst = chain_instance ~seed:1 ~n:5 ~p:2 ~m:3 () in
  let t = Node_bound.create ~rule:Mapping.Specialized inst in
  (* Task 0's successor (task 1 in a chain) is uncommitted. *)
  (try
     Node_bound.push t ~task:0 ~machine:0;
     Alcotest.fail "push out of backward order accepted"
   with Invalid_argument _ -> ());
  (try
     Node_bound.pop t;
     Alcotest.fail "pop of empty journal accepted"
   with Invalid_argument _ -> ())

(* End-to-end through Dfs: the LP-bound arm returns the same optimum as
   the plain search, actually evaluates the oracle, and stays
   byte-identical across jobs. *)
let test_dfs_node_bound_agrees () =
  let rule = Mapping.Specialized in
  for seed = 1 to 8 do
    let inst = chain_instance ~seed ~n:9 ~p:3 ~m:4 () in
    (* Each oracle counts its [nb_bound] calls into [calls] (atomic: the
       pooled search calls from several domains), so the test sees
       every node-LP evaluation, counted by the search or not. *)
    let factory calls () =
      let o = nb_oracle (Node_bound.create ~rule inst) in
      {
        o with
        Dfs.nb_bound =
          (fun ~cutoff ->
            Atomic.incr calls;
            o.Dfs.nb_bound ~cutoff);
      }
    in
    let calls = Atomic.make 0 and calls4 = Atomic.make 0 in
    let plain = Dfs.solve ~rule inst in
    let lp = Dfs.solve ~node_bound:(factory calls) ~rule inst in
    let lp4 =
      Dfs.solve ~pool:(Mf_parallel.Pool.shared ~domains:4) ~node_bound:(factory calls4) ~rule
        inst
    in
    Alcotest.(check bool) (Printf.sprintf "plain optimal (seed %d)" seed) true plain.Dfs.optimal;
    Alcotest.(check bool) (Printf.sprintf "lp optimal (seed %d)" seed) true lp.Dfs.optimal;
    Alcotest.(check (float 1e-9))
      (Printf.sprintf "periods agree (seed %d)" seed)
      plain.Dfs.period lp.Dfs.period;
    Alcotest.(check bool)
      (Printf.sprintf "oracle evaluated (seed %d)" seed)
      true
      (lp.Dfs.stats.Dfs.lp_solves > 0);
    Alcotest.(check int)
      (Printf.sprintf "oracle calls = lp_solves (seed %d)" seed)
      lp.Dfs.stats.Dfs.lp_solves (Atomic.get calls);
    Alcotest.(check int)
      (Printf.sprintf "j4 oracle calls = lp_solves (seed %d)" seed)
      lp4.Dfs.stats.Dfs.lp_solves (Atomic.get calls4);
    Alcotest.(check int)
      (Printf.sprintf "j1 = j4 nodes (seed %d)" seed)
      lp.Dfs.nodes lp4.Dfs.nodes;
    Alcotest.(check int)
      (Printf.sprintf "j1 = j4 lp_solves (seed %d)" seed)
      lp.Dfs.stats.Dfs.lp_solves lp4.Dfs.stats.Dfs.lp_solves;
    Alcotest.(check int)
      (Printf.sprintf "j1 = j4 lp_prunes (seed %d)" seed)
      lp.Dfs.stats.Dfs.lp_prunes lp4.Dfs.stats.Dfs.lp_prunes;
    Alcotest.(check (float 0.0))
      (Printf.sprintf "j1 = j4 period (seed %d)" seed)
      lp.Dfs.period lp4.Dfs.period
  done

let () =
  Alcotest.run "mf_exact"
    [
      ( "node-bound",
        [
          Alcotest.test_case "sound, never prunes optimum" `Slow
            test_node_bound_sound_never_prunes_optimum;
          Alcotest.test_case "deterministic replay" `Quick test_node_bound_deterministic_replay;
          Alcotest.test_case "push order contract" `Quick test_node_bound_push_order_contract;
          Alcotest.test_case "warm bound = fresh bound" `Quick test_node_bound_warm_matches_fresh;
          Alcotest.test_case "root bound = splitting LP" `Quick test_node_bound_root_is_splitting;
          Alcotest.test_case "dfs arm agrees with plain" `Slow test_dfs_node_bound_agrees;
        ] );
      ( "brute",
        [
          Alcotest.test_case "single task" `Quick test_brute_single_task;
          Alcotest.test_case "rule ordering" `Slow test_brute_rules_ordering;
          Alcotest.test_case "one-to-one precondition" `Quick test_brute_one_to_one_requires_machines;
        ] );
      ( "dfs",
        [
          Alcotest.test_case "matches brute (chains)" `Slow test_dfs_matches_brute;
          Alcotest.test_case "matches brute (trees)" `Slow test_dfs_matches_brute_on_trees;
          Alcotest.test_case "node budget" `Quick test_dfs_node_budget;
          Alcotest.test_case "incumbent is the seed" `Quick test_dfs_incumbent_is_the_seed;
          Alcotest.test_case "dominates heuristics" `Slow test_dfs_beats_or_matches_heuristics;
        ] );
      ( "dfs-rules",
        [
          Alcotest.test_case "general matches brute" `Slow test_dfs_general_matches_brute;
          Alcotest.test_case "one-to-one matches brute" `Slow test_dfs_one_to_one_matches_brute;
          Alcotest.test_case "rule ordering" `Slow test_dfs_rule_ordering;
          Alcotest.test_case "one-to-one precondition" `Quick test_dfs_one_to_one_requires_machines;
          Alcotest.test_case "reconfiguration crossover" `Slow test_dfs_general_setup_crossover;
          Alcotest.test_case "setup cyclic convention" `Quick
            test_dfs_general_setup_cyclic_convention;
        ] );
      ( "reduction",
        [
          Alcotest.test_case "shape" `Quick test_reduction_shape;
          Alcotest.test_case "solvable" `Quick test_reduction_solvable_instances;
          Alcotest.test_case "unsolvable" `Quick test_reduction_unsolvable_instances;
          Alcotest.test_case "validation" `Quick test_reduction_validation;
        ] );
      ("reduction-props", List.map QCheck_alcotest.to_alcotest [ prop_reduction_equivalence ]);
      ( "cross-solver-props",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_dfs_agrees_with_brute;
            prop_oto_bottleneck_equals_dfs;
            prop_splitting_lp_below_general_exact;
          ] );
      ( "dfs-differential",
        [
          Alcotest.test_case "specialized vs brute (200)" `Slow test_differential_specialized;
          Alcotest.test_case "general vs brute (200)" `Slow test_differential_general;
          Alcotest.test_case "one-to-one vs brute (200)" `Slow test_differential_one_to_one;
          Alcotest.test_case "general+setup vs brute" `Slow test_differential_general_setup;
          Alcotest.test_case "jobs 1 = jobs 4" `Slow test_jobs_identity;
          Alcotest.test_case "exhausted re-runs keep the incumbent" `Quick
            test_exhausted_rerun_keeps_incumbent;
          Alcotest.test_case "dominance fires and is safe" `Quick test_dominance_fires;
          Alcotest.test_case "symmetry fires and is safe" `Quick test_symmetry_fires;
          Alcotest.test_case "static engine agrees" `Slow test_static_agrees_with_bnb;
        ] );
      ( "oto",
        [
          Alcotest.test_case "theorem 1 optimal" `Slow test_theorem1_matches_brute;
          Alcotest.test_case "theorem 1 preconditions" `Quick test_theorem1_preconditions;
          Alcotest.test_case "bottleneck optimal" `Slow test_bottleneck_matches_brute;
          Alcotest.test_case "bottleneck preconditions" `Quick test_bottleneck_preconditions;
          Alcotest.test_case "specialized beats oto" `Slow test_specialized_at_least_as_good_as_oto;
        ] );
    ]
