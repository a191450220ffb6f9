(* Tests for mf_heuristics: engine invariants, the six paper heuristics,
   and the local-search extension, cross-checked against exact solvers. *)

module Instance = Mf_core.Instance
module Workflow = Mf_core.Workflow
module Mapping = Mf_core.Mapping
module Period = Mf_core.Period
module Engine = Mf_heuristics.Engine
module Registry = Mf_heuristics.Registry
module Local_search = Mf_heuristics.Local_search
module Gen = Mf_workload.Gen
module Rng = Mf_prng.Rng

let make_instance ?(seed = 1) ~n ~p ~m () =
  Gen.chain (Rng.create seed) (Gen.default ~tasks:n ~types:p ~machines:m)

(* ------------------------------------------------------------------ *)
(* Engine                                                              *)
(* ------------------------------------------------------------------ *)

let test_engine_rejects_small_platform () =
  let inst = make_instance ~n:5 ~p:3 ~m:2 () in
  Alcotest.check_raises "m < p"
    (Invalid_argument "Engine: fewer machines than task types - no specialized mapping exists")
    (fun () -> ignore (Engine.create inst))

let test_engine_x_candidate () =
  let wf = Workflow.chain ~types:[| 0; 1 |] in
  let inst =
    Instance.create ~workflow:wf ~machines:2
      ~w:[| [| 100.0; 100.0 |]; [| 100.0; 100.0 |] |]
      ~f:[| [| 0.5; 0.0 |]; [| 0.2; 0.5 |] |]
  in
  let eng = Engine.create inst in
  (* Backward: task 1 first. x_1 on M0 = 1/(1-0.2) = 1.25. *)
  Alcotest.(check (float 1e-12)) "x cand" 1.25 (Engine.x_candidate eng ~task:1 ~machine:0);
  Engine.assign eng ~task:1 ~machine:0;
  Alcotest.(check (float 1e-9)) "load" 125.0 (Engine.load eng 0);
  (* x_0 on M0 = 1.25 / (1-0.5) = 2.5. *)
  Alcotest.(check (float 1e-12)) "x chained" 2.5 (Engine.x_candidate eng ~task:0 ~machine:0)

let test_engine_dedication () =
  let inst = make_instance ~n:6 ~p:2 ~m:3 () in
  let eng = Engine.create inst in
  let order = Engine.order eng in
  let first = order.(0) in
  Engine.assign eng ~task:first ~machine:0;
  Alcotest.(check (option int)) "dedicated" (Some (Workflow.ttype (Instance.workflow inst) first))
    (Engine.dedicated eng 0);
  Alcotest.(check int) "free count" 2 (Engine.free_machines eng);
  Alcotest.(check int) "types to go" 1 (Engine.types_to_go eng);
  Engine.reset eng;
  Alcotest.(check int) "reset free" 3 (Engine.free_machines eng);
  Alcotest.(check (option int)) "reset dedicated" None (Engine.dedicated eng 0)

let test_engine_reservation () =
  (* 2 machines, 2 types: the first assignment must not let the second type
     starve, so opening a second group for the first type is forbidden. *)
  let wf = Workflow.chain ~types:[| 0; 0; 1 |] in
  let inst =
    Instance.create ~workflow:wf ~machines:2
      ~w:(Array.make_matrix 3 2 100.0)
      ~f:(Array.make_matrix 3 2 0.01)
  in
  let eng = Engine.create inst in
  (* Backward order: task 2 (type 1) first. *)
  Engine.assign eng ~task:2 ~machine:0;
  (* Task 1 has type 0, uncovered: machine 1 eligible, machine 0 not. *)
  Alcotest.(check bool) "other type machine blocked" false
    (Engine.eligible eng ~task:1 ~machine:0);
  Alcotest.(check bool) "fresh machine ok" true (Engine.eligible eng ~task:1 ~machine:1);
  Engine.assign eng ~task:1 ~machine:1;
  (* Task 0, type 0: only machine 1 remains eligible. *)
  Alcotest.(check (list int)) "eligible" [ 1 ] (Engine.eligible_machines eng ~task:0)

let test_engine_assign_errors () =
  let inst = make_instance ~n:4 ~p:2 ~m:4 () in
  let eng = Engine.create inst in
  let order = Engine.order eng in
  Alcotest.check_raises "successor not assigned"
    (Invalid_argument "Engine: successor not yet assigned (backward order violated)")
    (fun () -> ignore (Engine.x_candidate eng ~task:0 ~machine:0));
  Engine.assign eng ~task:order.(0) ~machine:0;
  Alcotest.check_raises "double assign"
    (Invalid_argument "Engine.assign: task already assigned") (fun () ->
      Engine.assign eng ~task:order.(0) ~machine:0);
  Alcotest.check_raises "incomplete mapping"
    (Invalid_argument "Engine.mapping: incomplete assignment") (fun () ->
      ignore (Engine.mapping eng))

(* ------------------------------------------------------------------ *)
(* Heuristics: validity and quality                                    *)
(* ------------------------------------------------------------------ *)

let test_all_heuristics_produce_specialized_mappings () =
  let inst = make_instance ~n:20 ~p:4 ~m:8 () in
  List.iter
    (fun h ->
      let mp = Registry.solve h inst in
      Alcotest.(check bool)
        (Registry.name h ^ " specialized")
        true
        (Mapping.satisfies inst mp Mapping.Specialized);
      Alcotest.(check bool)
        (Registry.name h ^ " finite period")
        true
        (Float.is_finite (Period.period inst mp)))
    Registry.all

let test_registry_names () =
  Alcotest.(check int) "six heuristics" 6 (List.length Registry.all);
  List.iter
    (fun h ->
      match Registry.of_name (Registry.name h) with
      | Some h' -> Alcotest.(check string) "roundtrip" (Registry.name h) (Registry.name h')
      | None -> Alcotest.fail "name roundtrip failed")
    Registry.all;
  (* of_name is the exact inverse of name over the whole registry — by
     construction now (of_name searches [all] by [name]), pinned here *)
  List.iter
    (fun h ->
      Alcotest.(check bool)
        (Printf.sprintf "of_name (name %s) = %s" (Registry.name h) (Registry.name h))
        true
        (Registry.of_name (Registry.name h) = Some h);
      Alcotest.(check bool) "lowercase accepted" true
        (Registry.of_name (String.lowercase_ascii (Registry.name h)) = Some h);
      Alcotest.(check bool) "whitespace trimmed" true
        (Registry.of_name (" " ^ Registry.name h ^ " ") = Some h))
    Registry.all;
  Alcotest.(check bool) "unknown name" true (Registry.of_name "nope" = None);
  Alcotest.(check bool) "case-insensitive" true (Registry.of_name "h4W" = Some Registry.H4w);
  List.iter
    (fun h ->
      Alcotest.(check bool) "described" true (String.length (Registry.description h) > 0))
    Registry.all

(* best threads one seed uniformly: it equals the explicit minimum over
   per-heuristic solves with that same seed, mapping included. *)
let test_best_threads_seed_uniformly () =
  let inst = make_instance ~n:15 ~p:3 ~m:6 () in
  List.iter
    (fun seed ->
      let mp, p = Registry.best ~seed inst in
      let expected_mp, expected_p =
        List.fold_left
          (fun (bmp, bp) h ->
            let mp = Registry.solve ~seed h inst in
            let p = Period.period inst mp in
            if p < bp then (mp, p) else (bmp, bp))
          (mp, infinity) Registry.all
      in
      Alcotest.(check bool)
        (Printf.sprintf "best period is the min (seed %d): %h vs %h" seed p expected_p)
        true (p = expected_p);
      Alcotest.(check (array int))
        (Printf.sprintf "best mapping achieves it (seed %d)" seed)
        (Mapping.to_array expected_mp) (Mapping.to_array mp))
    [ 0; 1; 42 ];
  (* default seed is the documented constant *)
  let d, _ = Registry.best inst in
  let e, _ = Registry.best ~seed:Registry.default_seed inst in
  Alcotest.(check (array int)) "default seed = default_seed" (Mapping.to_array e)
    (Mapping.to_array d)

let test_h1_deterministic_given_seed () =
  let inst = make_instance ~n:15 ~p:3 ~m:6 () in
  let a = Registry.solve ~seed:5 Registry.H1 inst in
  let b = Registry.solve ~seed:5 Registry.H1 inst in
  Alcotest.(check (array int)) "same seed same mapping" (Mapping.to_array a) (Mapping.to_array b)

let test_heuristics_not_worse_than_upper_bound () =
  let inst = make_instance ~n:25 ~p:5 ~m:10 () in
  let ub = Instance.period_upper_bound inst in
  List.iter
    (fun h ->
      let p = Period.period inst (Registry.solve h inst) in
      Alcotest.(check bool) (Registry.name h ^ " below UB") true (p <= ub))
    Registry.all

(* Regression for the binary-search stopping rule.  The old absolute stop
   (hi - lo > 1.0 ms) never opened the bracket on instances whose period
   upper bound is below ~1 ms, so H2/H3 silently returned the
   unbounded-budget mapping.  Scaling every w by a power of two scales the
   whole computation (bounds, midpoints, loads) bit-for-bit, so with the
   relative stop the searched mapping - and hence the period, rescaled -
   must be identical at both scales. *)
let scale_w inst c =
  let n = Instance.task_count inst and m = Instance.machines inst in
  Instance.create
    ~workflow:(Instance.workflow inst)
    ~machines:m
    ~w:(Array.init n (fun i -> Array.init m (fun u -> c *. Instance.w inst i u)))
    ~f:(Array.init n (fun i -> Array.init m (fun u -> Instance.f inst i u)))

let test_binary_search_scale_invariant () =
  let c = 1.0 /. 16384.0 in
  (* 2^-14: w ~ U[100,1000) lands in [0.006, 0.062) - all below 0.1 ms. *)
  List.iter
    (fun seed ->
      let inst = make_instance ~seed ~n:12 ~p:3 ~m:6 () in
      let tiny = scale_w inst c in
      for i = 0 to Instance.task_count tiny - 1 do
        for u = 0 to Instance.machines tiny - 1 do
          Alcotest.(check bool) "w < 0.1" true (Instance.w tiny i u < 0.1)
        done
      done;
      List.iter
        (fun h ->
          let p_big = Period.period inst (Registry.solve h inst) in
          let p_tiny = Period.period tiny (Registry.solve h tiny) in
          Alcotest.(check (float 1e-9))
            (Printf.sprintf "%s scale-invariant (seed %d)" (Registry.name h) seed)
            p_big
            (p_tiny /. c);
          (* The search must actually tighten the budget below the trivial
             upper bound, not fall back to the unbounded mapping. *)
          Alcotest.(check bool)
            (Printf.sprintf "%s tightens (seed %d)" (Registry.name h) seed)
            true
            (p_tiny < Instance.period_upper_bound tiny))
        [ Registry.H2; Registry.H3 ])
    [ 1; 2; 3; 4; 5 ]

(* On average over instances, H4w must clearly beat the random baseline -
   this is the paper's headline qualitative claim. *)
let test_h4w_beats_h1_on_average () =
  let ratio_sum = ref 0.0 in
  let trials = 20 in
  for seed = 1 to trials do
    let inst = make_instance ~seed ~n:30 ~p:5 ~m:10 () in
    let p_h1 = Period.period inst (Registry.solve ~seed Registry.H1 inst) in
    let p_h4w = Period.period inst (Registry.solve Registry.H4w inst) in
    ratio_sum := !ratio_sum +. (p_h1 /. p_h4w)
  done;
  let avg_ratio = !ratio_sum /. float_of_int trials in
  Alcotest.(check bool)
    (Printf.sprintf "H1/H4w avg ratio %.2f > 1.3" avg_ratio)
    true (avg_ratio > 1.3)

(* Exactness gap: on tiny instances the heuristics must stay within a small
   factor of the brute-force optimum, and never beat it. *)
let test_heuristics_vs_brute_force () =
  for seed = 1 to 10 do
    let inst = make_instance ~seed ~n:6 ~p:2 ~m:3 () in
    let _, opt = Mf_exact.Brute.specialized inst in
    List.iter
      (fun h ->
        let p = Period.period inst (Registry.solve h inst) in
        Alcotest.(check bool)
          (Printf.sprintf "%s >= opt (seed %d)" (Registry.name h) seed)
          true
          (p >= opt -. 1e-6))
      Registry.all;
    let p_h4w = Period.period inst (Registry.solve Registry.H4w inst) in
    Alcotest.(check bool)
      (Printf.sprintf "H4w within 3x of optimum (seed %d)" seed)
      true
      (p_h4w <= 3.0 *. opt)
  done

(* ------------------------------------------------------------------ *)
(* Local search                                                        *)
(* ------------------------------------------------------------------ *)

let test_local_search_never_degrades () =
  for seed = 1 to 10 do
    let inst = make_instance ~seed ~n:12 ~p:3 ~m:5 () in
    let mp = Registry.solve ~seed Registry.H1 inst in
    let improved = Local_search.improve inst mp in
    Alcotest.(check bool) "specialized preserved" true
      (Mapping.satisfies inst improved Mapping.Specialized);
    Alcotest.(check bool) "no degradation" true
      (Period.period inst improved <= Period.period inst mp +. 1e-9)
  done

let test_local_search_fixed_point_of_optimum () =
  let inst = make_instance ~seed:3 ~n:6 ~p:2 ~m:3 () in
  let opt_mp, opt = Mf_exact.Brute.specialized inst in
  let improved = Local_search.improve inst opt_mp in
  Alcotest.(check (float 1e-9)) "optimum unchanged" opt (Period.period inst improved)

(* The incremental search must follow the reference full-recomputation
   search move for move: same enumeration order, same tie-breaking, and
   x/load deltas exact enough that no comparison flips. *)
let test_local_search_matches_reference () =
  for seed = 1 to 8 do
    let inst = make_instance ~seed ~n:20 ~p:4 ~m:8 () in
    let mp = Registry.solve ~seed Registry.H1 inst in
    let inc = Local_search.improve inst mp in
    let reference = Local_search.improve_reference inst mp in
    Alcotest.(check (array int))
      (Printf.sprintf "same mapping (seed %d)" seed)
      (Mapping.to_array reference) (Mapping.to_array inc);
    let pi = Period.period inst inc and pr = Period.period inst reference in
    Alcotest.(check bool)
      (Printf.sprintf "same period (seed %d)" seed)
      true
      (Float.abs (pi -. pr) <= 1e-9 *. pr)
  done

(* MD5 of [improve]'s allocations and [%h] periods over 360 descents
   (chains and in-trees, n = 12, 20 and 60, starts H1, H2 and H4w, seeds
   1-20), recorded when [improve] still ran its own loop: candidates
   kept on a plain [<], the committed state's period starting the next
   round and at most 100 rounds.  The shared descent's relative margin,
   tentative period and missing round cap change none of them. *)
let improve_pin = "58513baa52f110533a216da11d3cc6ea"

let test_local_search_result_pin () =
  let buf = Buffer.create 65536 in
  List.iter
    (fun gen ->
      List.iter
        (fun (n, p, m) ->
          for seed = 1 to 20 do
            let inst = gen (Rng.create seed) (Gen.default ~tasks:n ~types:p ~machines:m) in
            List.iter
              (fun h ->
                let mp = Local_search.improve inst (Registry.solve ~seed h inst) in
                Array.iter (fun u -> Printf.bprintf buf "%d " u) (Mapping.to_array mp);
                Printf.bprintf buf "%h\n" (Period.period inst mp))
              [ Registry.H1; Registry.H2; Registry.H4w ]
          done)
        [ (12, 3, 5); (20, 4, 8); (60, 5, 12) ])
    [ Gen.chain; Gen.in_tree ];
  Alcotest.(check string) "MD5 of the improved mappings and periods" improve_pin
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

module State = Mf_eval.State

(* Descent starts for [descend]'s contract: each task on the machine
   numbered after its type, so machines p..m-1 start empty, on chains
   and in-trees (n = 20, p = 4, m = 8). *)
let descend_cases () =
  List.concat_map
    (fun gen ->
      List.init 10 (fun k ->
          let inst =
            gen (Rng.create (k + 1)) (Gen.default ~tasks:20 ~types:4 ~machines:8)
          in
          let wf = Instance.workflow inst in
          (inst, Array.init (Instance.task_count inst) (Workflow.ttype wf))))
    [ Gen.chain; Gen.in_tree ]

let down_of m machines =
  let down = Array.make m false in
  List.iter (fun u -> down.(u) <- true) machines;
  down

(* Down sets: a loaded machine, an empty one, and both.  Moves may take
   tasks off a down machine but never onto one; and an empty down
   machine shows any swap that touches it, since the swap would fill it
   from a loaded up machine.  So no task may end on a down machine it
   did not start on.  A mask of the wrong length raises. *)
let test_descend_down_mask () =
  let moved = ref 0 in
  List.iter
    (fun (inst, start) ->
      let m = Instance.machines inst in
      List.iter
        (fun machines ->
          let down = down_of m machines in
          let st = State.of_mapping inst (Mapping.of_array inst start) in
          let p0 = State.period st in
          ignore (Local_search.descend ~budget:max_int ~down st);
          let final = State.to_array st in
          Array.iteri
            (fun i u ->
              if down.(u) && u <> start.(i) then
                Alcotest.failf "T%d moved from M%d onto the down machine M%d" i start.(i) u;
              if u <> start.(i) then incr moved)
            final;
          Alcotest.(check bool) "specialized" true
            (Mapping.satisfies inst (State.mapping st) Mapping.Specialized);
          Alcotest.(check bool) "never worse" true (State.period st <= p0))
        [ [ 0 ]; [ m - 1 ]; [ 1; m - 2 ] ])
    (descend_cases ());
  Alcotest.(check bool) "the descents moved tasks" true (!moved > 0);
  let inst, start = List.hd (descend_cases ()) in
  let st = State.of_mapping inst (Mapping.of_array inst start) in
  Alcotest.check_raises "down one short"
    (Invalid_argument "Local_search.descend: down length differs from machine count")
    (fun () ->
      ignore
        (Local_search.descend ~budget:max_int
           ~down:(Array.make (Instance.machines inst - 1) false)
           st))

(* The first candidate [descend] evaluates in [st]: the allowed move
   onto an up machine with the lowest task, then machine. *)
let first_move st ~down =
  let n = Instance.task_count (State.instance st) and m = Array.length down in
  let rec go i u =
    if i = n then None
    else if u = m then go (i + 1) 0
    else if (not down.(u)) && u <> State.machine_of st i
            && State.move_allowed st ~task:i ~machine:u
    then Some (i, u)
    else go i (u + 1)
  in
  go 0 0

(* The budget caps evaluations without changing the path: a run with
   budget b spends min b e, where e is the unbounded run's count, and
   with b >= e ends on the unbounded run's mapping; b = 0 spends and
   changes nothing.  Budget 1 cuts the first round after its first
   candidate, which that round still applies when it beats the start by
   the margin. *)
let test_descend_budget () =
  let cut_applied = ref 0 in
  List.iter
    (fun (inst, start) ->
      let m = Instance.machines inst in
      let down = down_of m [ 0 ] in
      let run budget =
        let st = State.of_mapping inst (Mapping.of_array inst start) in
        let spent = Local_search.descend ~budget ~down st in
        (spent, State.to_array st)
      in
      let e, unbounded = run max_int in
      Alcotest.(check bool) "the unbounded run evaluates" true (e > 0);
      List.iter
        (fun b ->
          let spent, final = run b in
          Alcotest.(check int) (Printf.sprintf "budget %d of %d" b e) (min b e) spent;
          if b >= e then
            Alcotest.(check (array int)) (Printf.sprintf "budget %d mapping" b) unbounded final;
          if b = 0 then Alcotest.(check (array int)) "budget 0 changes nothing" start final)
        [ 0; 1; e / 3; e - 1; e; e + 1; 2 * e ];
      let st = State.of_mapping inst (Mapping.of_array inst start) in
      let expected = Array.copy start in
      (match first_move st ~down with
      | Some (i, u)
        when State.try_move st ~task:i ~machine:u < State.period st *. (1.0 -. 1e-12) ->
        expected.(i) <- u;
        incr cut_applied
      | _ -> ());
      Alcotest.(check (array int)) "budget 1 applies its one candidate" expected (snd (run 1)))
    (descend_cases ());
  Alcotest.(check bool) "some cut round applied a move" true (!cut_applied > 0)

(* ------------------------------------------------------------------ *)
(* Prose variants of H2/H3                                             *)
(* ------------------------------------------------------------------ *)

module H2_variants = Mf_heuristics.H2_variants

let test_h2_retry_valid_and_stronger () =
  let better = ref 0 in
  for seed = 1 to 10 do
    let inst = make_instance ~seed ~n:30 ~p:4 ~m:10 () in
    let strict = Period.period inst (Registry.solve Registry.H2 inst) in
    let mp = H2_variants.h2_retry inst in
    Alcotest.(check bool) "specialized" true (Mapping.satisfies inst mp Mapping.Specialized);
    let retry = Period.period inst mp in
    if retry < strict -. 1e-9 then incr better
  done;
  (* The prose reading should win on a clear majority of instances. *)
  Alcotest.(check bool) (Printf.sprintf "retry better on %d/10" !better) true (!better >= 6)

let test_h3_retry_valid () =
  for seed = 1 to 5 do
    let inst = make_instance ~seed ~n:20 ~p:3 ~m:8 () in
    let mp = H2_variants.h3_retry inst in
    Alcotest.(check bool) "specialized" true (Mapping.satisfies inst mp Mapping.Specialized);
    Alcotest.(check bool) "finite" true (Float.is_finite (Period.period inst mp))
  done

(* ------------------------------------------------------------------ *)
(* Simulated annealing                                                 *)
(* ------------------------------------------------------------------ *)

module Annealing = Mf_heuristics.Annealing

let test_annealing_never_degrades () =
  for seed = 1 to 8 do
    let inst = make_instance ~seed ~n:15 ~p:3 ~m:6 () in
    let mp = Registry.solve ~seed Registry.H1 inst in
    let rng = Rng.create (seed * 11) in
    let annealed = Annealing.run rng inst mp in
    Alcotest.(check bool) "specialized preserved" true
      (Mapping.satisfies inst annealed Mapping.Specialized);
    Alcotest.(check bool) "never degrades" true
      (Period.period inst annealed <= Period.period inst mp +. 1e-9)
  done

let test_annealing_improves_h1_on_average () =
  let gain = ref 0.0 in
  let trials = 8 in
  for seed = 1 to trials do
    let inst = make_instance ~seed ~n:20 ~p:4 ~m:8 () in
    let mp = Registry.solve ~seed Registry.H1 inst in
    let annealed = Annealing.run (Rng.create seed) inst mp in
    gain := !gain +. (Period.period inst mp /. Period.period inst annealed)
  done;
  let avg = !gain /. float_of_int trials in
  Alcotest.(check bool) (Printf.sprintf "avg ratio %.2f > 1.2" avg) true (avg > 1.2)

let test_annealing_rejects_invalid_start () =
  let inst = make_instance ~n:4 ~p:2 ~m:4 () in
  (* Build a non-specialized mapping: two types on one machine. *)
  let wf = Instance.workflow inst in
  let a = Array.make 4 0 in
  let distinct =
    List.exists (fun i -> Workflow.ttype wf i <> Workflow.ttype wf 0) [ 1; 2; 3 ]
  in
  if distinct then begin
    let mp = Mapping.of_array inst a in
    match Annealing.run (Rng.create 1) inst mp with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected Invalid_argument"
  end

(* Same contract as the local-search differential test: the incremental
   annealer consumes the RNG draw for draw like the reference one, so on a
   shared seed both follow the same trajectory. *)
let test_annealing_matches_reference () =
  for seed = 1 to 6 do
    let inst = make_instance ~seed ~n:15 ~p:3 ~m:6 () in
    let mp = Registry.solve ~seed Registry.H1 inst in
    let inc = Annealing.run (Rng.create (seed * 7)) inst mp in
    let reference = Annealing.run_reference (Rng.create (seed * 7)) inst mp in
    (* Ulp-level differences in the evaluated period can snapshot the best
       state at a different step, yielding a machine-relabelled mapping
       with the same period - so compare periods, not allocations. *)
    let pi = Period.period inst inc and pr = Period.period inst reference in
    Alcotest.(check bool)
      (Printf.sprintf "same period (seed %d)" seed)
      true
      (Float.abs (pi -. pr) <= 1e-9 *. pr)
  done

let test_annealing_deterministic_given_rng () =
  let inst = make_instance ~seed:4 ~n:12 ~p:3 ~m:5 () in
  let mp = Registry.solve Registry.H3 inst in
  let a = Annealing.run (Rng.create 7) inst mp in
  let b = Annealing.run (Rng.create 7) inst mp in
  Alcotest.(check (array int)) "same rng same result" (Mapping.to_array a) (Mapping.to_array b)

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let arb_setup =
  QCheck.make
    ~print:(fun (seed, n, p, m) -> Printf.sprintf "seed=%d n=%d p=%d m=%d" seed n p m)
    QCheck.Gen.(
      let* seed = int_range 0 100000 in
      let* n = int_range 2 25 in
      let* p = int_range 1 (min n 5) in
      let* m = int_range p 10 in
      return (seed, n, p, m))

let prop_heuristics_always_valid =
  QCheck.Test.make ~name:"heuristics: always produce a valid specialized mapping" ~count:100
    arb_setup (fun (seed, n, p, m) ->
      let inst = make_instance ~seed ~n ~p ~m () in
      List.for_all
        (fun h ->
          let mp = Registry.solve ~seed h inst in
          Mapping.satisfies inst mp Mapping.Specialized)
        Registry.all)

let prop_binary_search_heuristics_bounded =
  QCheck.Test.make ~name:"heuristics: H2/H3 periods are within the search bracket" ~count:100
    arb_setup (fun (seed, n, p, m) ->
      let inst = make_instance ~seed ~n ~p ~m () in
      let ub = Instance.period_upper_bound inst in
      List.for_all
        (fun h ->
          let period = Period.period inst (Registry.solve h inst) in
          period > 0.0 && period <= ub *. (1.0 +. 1e-9))
        [ Registry.H2; Registry.H3 ])

let () =
  Alcotest.run "mf_heuristics"
    [
      ( "engine",
        [
          Alcotest.test_case "rejects m < p" `Quick test_engine_rejects_small_platform;
          Alcotest.test_case "x candidate" `Quick test_engine_x_candidate;
          Alcotest.test_case "dedication" `Quick test_engine_dedication;
          Alcotest.test_case "reservation" `Quick test_engine_reservation;
          Alcotest.test_case "assign errors" `Quick test_engine_assign_errors;
        ] );
      ( "heuristics",
        [
          Alcotest.test_case "valid mappings" `Quick test_all_heuristics_produce_specialized_mappings;
          Alcotest.test_case "registry" `Quick test_registry_names;
          Alcotest.test_case "best threads seed" `Quick test_best_threads_seed_uniformly;
          Alcotest.test_case "H1 determinism" `Quick test_h1_deterministic_given_seed;
          Alcotest.test_case "below upper bound" `Quick test_heuristics_not_worse_than_upper_bound;
          Alcotest.test_case "binary search scale invariance" `Quick
            test_binary_search_scale_invariant;
          Alcotest.test_case "H4w beats H1" `Slow test_h4w_beats_h1_on_average;
          Alcotest.test_case "vs brute force" `Slow test_heuristics_vs_brute_force;
        ] );
      ( "local search",
        [
          Alcotest.test_case "never degrades" `Quick test_local_search_never_degrades;
          Alcotest.test_case "optimum is a fixed point" `Quick test_local_search_fixed_point_of_optimum;
          Alcotest.test_case "matches reference" `Quick test_local_search_matches_reference;
          Alcotest.test_case "result pin" `Quick test_local_search_result_pin;
          Alcotest.test_case "descend down mask" `Quick test_descend_down_mask;
          Alcotest.test_case "descend budget" `Quick test_descend_budget;
        ] );
      ( "h2-variants",
        [
          Alcotest.test_case "h2 retry stronger" `Slow test_h2_retry_valid_and_stronger;
          Alcotest.test_case "h3 retry valid" `Quick test_h3_retry_valid;
        ] );
      ( "annealing",
        [
          Alcotest.test_case "never degrades" `Quick test_annealing_never_degrades;
          Alcotest.test_case "improves H1" `Slow test_annealing_improves_h1_on_average;
          Alcotest.test_case "matches reference" `Quick test_annealing_matches_reference;
          Alcotest.test_case "rejects invalid start" `Quick test_annealing_rejects_invalid_start;
          Alcotest.test_case "deterministic" `Quick test_annealing_deterministic_given_rng;
        ] );
      ( "props",
        List.map QCheck_alcotest.to_alcotest
          [ prop_heuristics_always_valid; prop_binary_search_heuristics_bounded ] );
    ]
