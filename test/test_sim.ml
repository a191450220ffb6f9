(* Tests for mf_sim: the discrete-event simulator must agree with the
   analytic throughput model, and its empirical loss rates with the f
   matrix. *)

module Instance = Mf_core.Instance
module Workflow = Mf_core.Workflow
module Mapping = Mf_core.Mapping
module Period = Mf_core.Period
module Desim = Mf_sim.Desim
module Event = Mf_sim.Event
module Calendar = Mf_sim.Calendar
module Gen = Mf_workload.Gen
module Rng = Mf_prng.Rng

(* ------------------------------------------------------------------ *)
(* Calendar                                                            *)
(* ------------------------------------------------------------------ *)

let test_calendar_order () =
  let cal = Calendar.create () in
  Calendar.schedule cal ~time:3.0 3;
  Calendar.schedule cal ~time:1.0 1;
  Calendar.schedule cal ~time:2.0 2;
  Alcotest.(check int) "length" 3 (Calendar.length cal);
  Alcotest.(check (option (pair (float 0.0) int))) "first" (Some (1.0, 1)) (Calendar.next cal);
  Alcotest.(check (option (pair (float 0.0) int))) "second" (Some (2.0, 2)) (Calendar.next cal);
  Alcotest.(check (option (pair (float 0.0) int))) "third" (Some (3.0, 3)) (Calendar.next cal);
  Alcotest.(check bool) "empty" true (Calendar.is_empty cal)

let test_calendar_fifo_on_ties () =
  let cal = Calendar.create () in
  Calendar.schedule cal ~time:1.0 1;
  Calendar.schedule cal ~time:1.0 2;
  Alcotest.(check (option (pair (float 0.0) int))) "tie order" (Some (1.0, 1))
    (Calendar.next cal);
  Alcotest.(check (option (pair (float 0.0) int))) "tie order 2" (Some (1.0, 2))
    (Calendar.next cal)

let test_calendar_rejects_bad_time () =
  let cal = Calendar.create () in
  Alcotest.check_raises "negative" (Invalid_argument "Calendar.schedule: bad time") (fun () ->
      Calendar.schedule cal ~time:(-1.0) 0)

(* ------------------------------------------------------------------ *)
(* Deterministic no-failure pipeline                                   *)
(* ------------------------------------------------------------------ *)

(* Chain of 2 tasks, distinct machines, no failures: the line is paced by
   the slower stage. *)
let test_sim_no_failures_throughput () =
  let wf = Workflow.chain ~types:[| 0; 1 |] in
  let inst =
    Instance.create ~workflow:wf ~machines:2
      ~w:[| [| 10.0; 10.0 |]; [| 20.0; 20.0 |] |]
      ~f:(Array.make_matrix 2 2 0.0)
  in
  let mp = Mapping.of_array inst [| 0; 1 |] in
  Alcotest.(check (float 1e-9)) "analytic period" 20.0 (Period.period inst mp);
  let r = Desim.run ~warmup:1000.0 ~horizon:21000.0 ~seed:1 inst mp in
  (* One output every 20 time units in steady state. *)
  Alcotest.(check bool)
    (Printf.sprintf "throughput %.5f near 0.05" r.Desim.throughput)
    true
    (Float.abs (r.Desim.throughput -. 0.05) < 0.002);
  Alcotest.(check (array int)) "no losses" [| 0; 0 |] r.Desim.lost

let test_sim_single_machine_sum () =
  (* Both tasks on one machine: period = 10 + 20 = 30 per product. *)
  let wf = Workflow.chain ~types:[| 0; 0 |] in
  let inst =
    Instance.create ~workflow:wf ~machines:1 ~w:[| [| 10.0 |]; [| 10.0 |] |]
      ~f:(Array.make_matrix 2 1 0.0)
  in
  let mp = Mapping.of_array inst [| 0; 0 |] in
  Alcotest.(check (float 1e-9)) "analytic period" 20.0 (Period.period inst mp);
  let r = Desim.run ~warmup:500.0 ~horizon:20500.0 ~seed:1 inst mp in
  Alcotest.(check bool)
    (Printf.sprintf "throughput %.5f near 0.05" r.Desim.throughput)
    true
    (Float.abs (r.Desim.throughput -. 0.05) < 0.003)

(* ------------------------------------------------------------------ *)
(* Stochastic agreement with the analytic model                        *)
(* ------------------------------------------------------------------ *)

let relative_error a b = Float.abs (a -. b) /. b

let test_sim_matches_analytic_with_failures () =
  (* A 4-task chain with moderate failures on 3 machines; long horizon. *)
  let inst = Gen.chain (Rng.create 11) (Gen.default ~tasks:4 ~types:2 ~machines:3) in
  let mp = Mf_heuristics.Registry.solve Mf_heuristics.Registry.H4w inst in
  let analytic = Period.throughput inst mp in
  let r = Desim.run ~warmup:2.0e5 ~horizon:4.0e6 ~seed:7 inst mp in
  Alcotest.(check bool)
    (Printf.sprintf "simulated %.6g vs analytic %.6g" r.Desim.throughput analytic)
    true
    (relative_error r.Desim.throughput analytic < 0.05)

let test_sim_matches_analytic_on_join () =
  let wf =
    Workflow.in_forest ~types:[| 0; 1; 2 |] ~successor:[| Some 2; Some 2; None |]
  in
  let inst =
    Instance.create ~workflow:wf ~machines:3
      ~w:[| [| 50.0; 60.0; 70.0 |]; [| 40.0; 30.0; 55.0 |]; [| 45.0; 80.0; 25.0 |] |]
      ~f:(Array.make_matrix 3 3 0.05)
  in
  let mp = Mapping.of_array inst [| 0; 1; 2 |] in
  let analytic = Period.throughput inst mp in
  let r = Desim.run ~warmup:1.0e5 ~horizon:2.0e6 ~seed:3 inst mp in
  Alcotest.(check bool)
    (Printf.sprintf "join: simulated %.6g vs analytic %.6g" r.Desim.throughput analytic)
    true
    (relative_error r.Desim.throughput analytic < 0.07)

let test_sim_empirical_loss_rates () =
  let wf = Workflow.chain ~types:[| 0; 1 |] in
  let inst =
    Instance.create ~workflow:wf ~machines:2
      ~w:(Array.make_matrix 2 2 10.0)
      ~f:[| [| 0.1; 0.1 |]; [| 0.02; 0.02 |] |]
  in
  let mp = Mapping.of_array inst [| 0; 1 |] in
  let r = Desim.run ~warmup:0.0 ~horizon:2.0e6 ~seed:9 inst mp in
  let rate0 = Desim.measured_loss_rate r ~task:0 in
  let rate1 = Desim.measured_loss_rate r ~task:1 in
  Alcotest.(check bool) (Printf.sprintf "task0 rate %.4f" rate0) true
    (Float.abs (rate0 -. 0.1) < 0.01);
  Alcotest.(check bool) (Printf.sprintf "task1 rate %.4f" rate1) true
    (Float.abs (rate1 -. 0.02) < 0.005)

let test_sim_consumed_exceeds_outputs () =
  (* With failures, more raw products are consumed than finished. *)
  let inst = Gen.chain (Rng.create 5) (Gen.with_high_failures (Gen.default ~tasks:5 ~types:2 ~machines:3)) in
  let mp = Mf_heuristics.Registry.solve Mf_heuristics.Registry.H4w inst in
  let r = Desim.run ~warmup:0.0 ~horizon:1.0e6 ~seed:2 inst mp in
  Alcotest.(check bool) "outputs > 0" true (r.Desim.outputs > 0);
  Alcotest.(check bool) "consumed > outputs" true (r.Desim.consumed > r.Desim.outputs)

let test_sim_deterministic () =
  let inst =
    Gen.chain (Rng.create 21)
      (Gen.with_high_failures (Gen.default ~tasks:5 ~types:2 ~machines:3))
  in
  let mp = Mf_heuristics.Registry.solve Mf_heuristics.Registry.H2 inst in
  let a = Desim.run ~horizon:1.0e5 ~seed:4 inst mp in
  let b = Desim.run ~horizon:1.0e5 ~seed:4 inst mp in
  Alcotest.(check int) "same outputs" a.Desim.outputs b.Desim.outputs;
  Alcotest.(check int) "same consumed" a.Desim.consumed b.Desim.consumed;
  Alcotest.(check (array int)) "same losses" a.Desim.lost b.Desim.lost;
  let c = Desim.run ~horizon:1.0e5 ~seed:5 inst mp in
  Alcotest.(check bool) "different seed differs" true
    (a.Desim.outputs <> c.Desim.outputs
    || a.Desim.consumed <> c.Desim.consumed
    || a.Desim.lost <> c.Desim.lost)

let test_sim_event_stream_sane () =
  let wf = Workflow.chain ~types:[| 0; 1 |] in
  let inst =
    Instance.create ~workflow:wf ~machines:2
      ~w:(Array.make_matrix 2 2 10.0)
      ~f:(Array.make_matrix 2 2 0.0)
  in
  let mp = Mapping.of_array inst [| 0; 1 |] in
  let events = ref [] in
  let _ = Desim.run ~warmup:0.0 ~horizon:100.0 ~seed:1 ~on_event:(fun e -> events := e :: !events) inst mp in
  let events = List.rev !events in
  Alcotest.(check bool) "nonempty" true (List.length events > 0);
  (* Times never decrease. *)
  let rec monotone = function
    | a :: (b :: _ as rest) -> Event.time a <= Event.time b && monotone rest
    | _ -> true
  in
  Alcotest.(check bool) "monotone times" true (monotone events);
  (* Every machine-task pair alternates start/complete. *)
  let open_execs = Hashtbl.create 8 in
  List.iter
    (fun e ->
      match e with
      | Event.Start { machine; _ } ->
        Alcotest.(check bool) "machine idle at start" false (Hashtbl.mem open_execs machine);
        Hashtbl.replace open_execs machine ()
      | Event.Complete { machine; _ } ->
        Alcotest.(check bool) "machine busy at completion" true (Hashtbl.mem open_execs machine);
        Hashtbl.remove open_execs machine
      | Event.Output _ -> ()
      | Event.Breakdown _ | Event.Repair _ | Event.Resume _ | Event.Remap _ ->
        Alcotest.fail "dynamic event in a breakdown-free run")
    events;
  (* Event pretty-printing is total. *)
  List.iter (fun e -> Alcotest.(check bool) "printable" true (String.length (Event.to_string e) > 0)) events

let test_sim_validation () =
  let inst = Gen.chain (Rng.create 1) (Gen.default ~tasks:2 ~types:1 ~machines:1) in
  let mp = Mapping.of_array inst [| 0; 0 |] in
  Alcotest.check_raises "bad window" (Invalid_argument "Desim.run: need 0 <= warmup < horizon")
    (fun () -> ignore (Desim.run ~warmup:10.0 ~horizon:5.0 ~seed:1 inst mp));
  (* A mapping built for another instance is refused up front, in both
     directions: more tasks and machines than the instance, and fewer. *)
  let chain ~n ~m =
    Instance.create
      ~workflow:(Workflow.chain ~types:(Array.make n 0))
      ~machines:m ~w:(Array.make_matrix n m 10.0) ~f:(Array.make_matrix n m 0.0)
  in
  let small = chain ~n:3 ~m:2 and large = chain ~n:4 ~m:3 in
  let wrong = Invalid_argument "Desim.run: mapping sized for a different instance" in
  Alcotest.check_raises "larger mapping" wrong (fun () ->
      ignore (Desim.run ~horizon:100.0 ~seed:1 small (Mapping.of_array large [| 0; 1; 2; 2 |])));
  Alcotest.check_raises "smaller mapping" wrong (fun () ->
      ignore (Desim.run ~horizon:100.0 ~seed:1 large (Mapping.of_array small [| 0; 1; 1 |])))

(* Property: on random small instances, simulated throughput is within 10%
   of analytic for long horizons. *)
let prop_sim_close_to_analytic =
  QCheck.Test.make ~name:"sim: throughput within 10% of analytic" ~count:15
    (QCheck.make
       ~print:(fun (seed, n, p, m) -> Printf.sprintf "seed=%d n=%d p=%d m=%d" seed n p m)
       QCheck.Gen.(
         let* seed = int_range 0 10000 in
         let* n = int_range 2 8 in
         let* p = int_range 1 (min n 3) in
         let* m = int_range p 4 in
         return (seed, n, p, m)))
    (fun (seed, n, p, m) ->
      let inst = Gen.chain (Rng.create seed) (Gen.default ~tasks:n ~types:p ~machines:m) in
      let mp = Mf_heuristics.Registry.solve Mf_heuristics.Registry.H4w inst in
      let analytic = Period.throughput inst mp in
      let r = Desim.run ~warmup:1.0e5 ~horizon:1.5e6 ~seed:(seed + 1) inst mp in
      relative_error r.Desim.throughput analytic < 0.10)

let test_sim_buffer_capacity_blocks () =
  (* Fast producer, slow consumer: with capacity 1 the producer throttles
     to the consumer's pace, without it the producer saturates. *)
  let wf = Workflow.chain ~types:[| 0; 1 |] in
  let inst =
    Instance.create ~workflow:wf ~machines:2
      ~w:[| [| 10.0; 10.0 |]; [| 40.0; 40.0 |] |]
      ~f:(Array.make_matrix 2 2 0.0)
  in
  let mp = Mapping.of_array inst [| 0; 1 |] in
  let unbounded = Desim.run ~warmup:0.0 ~horizon:40000.0 ~seed:1 inst mp in
  let bounded = Desim.run ~warmup:0.0 ~horizon:40000.0 ~seed:1 ~buffer_capacity:1 inst mp in
  (* Same outputs (the consumer is the bottleneck either way)... *)
  Alcotest.(check bool) "similar outputs" true
    (abs (unbounded.Desim.outputs - bounded.Desim.outputs) <= 2);
  (* ...but far fewer raw products pulled in when blocked. *)
  Alcotest.(check bool)
    (Printf.sprintf "consumed %d (bounded) << %d (unbounded)" bounded.Desim.consumed
       unbounded.Desim.consumed)
    true
    (bounded.Desim.consumed * 2 < unbounded.Desim.consumed);
  (* Blocked WIP stays bounded: executions of T0 close to those of T1. *)
  Alcotest.(check bool) "WIP bounded" true
    (bounded.Desim.executions.(0) <= bounded.Desim.executions.(1) + 2)

let test_sim_buffer_capacity_throughput_monotone () =
  let inst = Gen.chain (Rng.create 31) (Gen.default ~tasks:6 ~types:2 ~machines:3) in
  let mp = Mf_heuristics.Registry.solve Mf_heuristics.Registry.H4w inst in
  let thr cap =
    (Desim.run ~warmup:5.0e4 ~horizon:1.0e6 ~seed:2 ?buffer_capacity:cap inst mp)
      .Desim.throughput
  in
  let t1 = thr (Some 1) and t4 = thr (Some 4) and tinf = thr None in
  Alcotest.(check bool) (Printf.sprintf "t1 %.6f <= t4 %.6f (+tol)" t1 t4) true
    (t1 <= t4 *. 1.05);
  Alcotest.(check bool) (Printf.sprintf "t4 %.6f <= inf %.6f (+tol)" t4 tinf) true
    (t4 <= tinf *. 1.05)

(* Same seed, same instance: blocking can only slow the line down.  The
   instance is failure-free so the claim is exact — under losses the two
   runs consume the shared Bernoulli stream in different schedule
   orders, and the bounded run can luckily edge ahead by a few outputs
   (the stochastic side is covered by the monotonicity-with-tolerance
   test above). *)
let test_sim_bounded_never_beats_unbounded () =
  let wf = Workflow.chain ~types:(Array.make 6 0) in
  let inst =
    Instance.create ~workflow:wf ~machines:3
      ~w:(Array.make_matrix 6 3 100.0)
      ~f:(Array.make_matrix 6 3 0.0)
  in
  (* The lone source on machine 0 overproduces freely when unbounded. *)
  let mp = Mapping.of_array inst [| 0; 1; 1; 1; 2; 2 |] in
  let unbounded = Desim.run ~warmup:5.0e4 ~horizon:1.0e6 ~seed:7 inst mp in
  let bounded =
    Desim.run ~warmup:5.0e4 ~horizon:1.0e6 ~seed:7 ~buffer_capacity:1 inst mp
  in
  Alcotest.(check bool)
    (Printf.sprintf "bounded %d <= unbounded %d" bounded.Desim.outputs
       unbounded.Desim.outputs)
    true
    (bounded.Desim.outputs <= unbounded.Desim.outputs);
  Alcotest.(check bool) "bounded still progresses" true (bounded.Desim.outputs > 0)

(* Capacity 1 on a chain whose tasks share machines: the tightest
   blocking configuration must still make progress (no deadlock). *)
let test_sim_capacity_one_chain_progress () =
  let wf = Workflow.chain ~types:[| 0; 0; 0; 0; 0 |] in
  let inst =
    Instance.create ~workflow:wf ~machines:2
      ~w:(Array.make_matrix 5 2 10.0)
      ~f:(Array.make_matrix 5 2 0.1)
  in
  let mp = Mapping.of_array inst [| 0; 1; 0; 1; 0 |] in
  let r = Desim.run ~warmup:0.0 ~horizon:1.0e5 ~seed:3 ~buffer_capacity:1 inst mp in
  Alcotest.(check bool)
    (Printf.sprintf "outputs %d > 100" r.Desim.outputs)
    true (r.Desim.outputs > 100);
  Array.iteri
    (fun i e ->
      Alcotest.(check bool) (Printf.sprintf "task %d executed" i) true (e > 0))
    r.Desim.executions

(* Regression (found by the sim-vs-analytic fuzz oracle): a machine
   hosting both branches of an assembly used to run the first source
   branch forever — it is always ready — so the sibling branch starved
   and the join never fired: 0 outputs instead of window / period.  The
   emptiest-output-buffer policy must keep all branches moving. *)
let test_sim_assembly_shared_machine_no_starvation () =
  let wf =
    Workflow.in_forest ~types:[| 0; 0; 0 |] ~successor:[| Some 2; Some 2; None |]
  in
  let inst =
    Instance.create ~workflow:wf ~machines:1
      ~w:(Array.make_matrix 3 1 1.0)
      ~f:(Array.make_matrix 3 1 0.0)
  in
  let mp = Mapping.of_array inst [| 0; 0; 0 |] in
  let analytic = Period.throughput inst mp in
  let r = Desim.run ~horizon:10000.0 ~seed:1 inst mp in
  Array.iteri
    (fun i e ->
      Alcotest.(check bool) (Printf.sprintf "task %d executed" i) true (e > 0))
    r.Desim.executions;
  Alcotest.(check bool)
    (Printf.sprintf "throughput %.6g within 5%% of analytic %.6g" r.Desim.throughput
       analytic)
    true
    (relative_error r.Desim.throughput analytic < 0.05)

(* Regression pinned by test/fuzz/corpus/sim-vs-analytic-431066338797847534:
   two chains 0 -> 3 -> 4 and 1 -> 2 -> 4 with both sources on one machine
   and the rest on another.  Task 3 drains task 0's buffer within the same
   wake cycle, so the emptiest-buffer policy alone sees a permanent 0-0 tie
   on the source machine and the index tie-break runs task 0 forever: task 1
   starves across machines and the join never fires.  Scheduling on
   cumulative surviving production (monotone, so consumption cannot erase
   it) must keep both branches moving. *)
let test_sim_cross_machine_livelock () =
  let wf =
    Workflow.in_forest ~types:[| 0; 0; 0; 0; 1 |]
      ~successor:[| Some 3; Some 2; Some 4; Some 4; None |]
  in
  let inst =
    Instance.create ~workflow:wf ~machines:3
      ~w:(Array.make_matrix 5 3 1.0)
      ~f:(Array.make_matrix 5 3 0.0)
  in
  let mp = Mapping.of_array inst [| 2; 2; 0; 0; 0 |] in
  let analytic = Period.throughput inst mp in
  let r = Desim.run ~horizon:10000.0 ~seed:1 inst mp in
  Array.iteri
    (fun i e ->
      Alcotest.(check bool) (Printf.sprintf "task %d executed" i) true (e > 0))
    r.Desim.executions;
  Alcotest.(check bool)
    (Printf.sprintf "throughput %.6g within 5%% of analytic %.6g" r.Desim.throughput
       analytic)
    true
    (relative_error r.Desim.throughput analytic < 0.05)

let test_sim_buffer_capacity_validation () =
  let inst = Gen.chain (Rng.create 1) (Gen.default ~tasks:2 ~types:1 ~machines:1) in
  let mp = Mapping.of_array inst [| 0; 0 |] in
  Alcotest.check_raises "zero capacity"
    (Invalid_argument "Desim.run: buffer capacity must be at least 1") (fun () ->
      ignore (Desim.run ~horizon:100.0 ~seed:1 ~buffer_capacity:0 inst mp))

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

module Metrics = Mf_sim.Metrics

let test_metrics_utilisation () =
  (* Slow source stage, fast final stage: the source machine saturates
     (raw material is unlimited) while the final machine idles half the
     time waiting for parts. *)
  let wf = Workflow.chain ~types:[| 0; 1 |] in
  let inst =
    Instance.create ~workflow:wf ~machines:2
      ~w:[| [| 20.0; 20.0 |]; [| 10.0; 10.0 |] |]
      ~f:(Array.make_matrix 2 2 0.0)
  in
  let mp = Mapping.of_array inst [| 0; 1 |] in
  let r = Desim.run ~warmup:0.0 ~horizon:10000.0 ~seed:1 inst mp in
  let stats = Metrics.machine_stats inst mp r in
  Alcotest.(check int) "two rows" 2 (List.length stats);
  let m0 = List.nth stats 0 and m1 = List.nth stats 1 in
  Alcotest.(check bool) "M0 saturated" true (m0.Metrics.utilisation > 0.95);
  Alcotest.(check bool) "M1 half idle" true
    (m1.Metrics.utilisation > 0.4 && m1.Metrics.utilisation < 0.6);
  Alcotest.(check int) "bottleneck" 0 (Metrics.bottleneck inst mp r);
  Alcotest.(check bool) "executions counted" true (m0.Metrics.executions > 400)

let test_metrics_loss_summary () =
  let wf = Workflow.chain ~types:[| 0; 1 |] in
  let inst =
    Instance.create ~workflow:wf ~machines:2
      ~w:(Array.make_matrix 2 2 10.0)
      ~f:[| [| 0.05; 0.05 |]; [| 0.01; 0.01 |] |]
  in
  let mp = Mapping.of_array inst [| 0; 1 |] in
  let r = Desim.run ~warmup:0.0 ~horizon:5.0e5 ~seed:3 inst mp in
  List.iter
    (fun (task, empirical, configured) ->
      match empirical with
      | None -> Alcotest.fail (Printf.sprintf "task %d unexpectedly never executed" task)
      | Some empirical ->
        Alcotest.(check bool)
          (Printf.sprintf "task %d empirical %.4f near configured %.4f" task empirical
             configured)
          true
          (Float.abs (empirical -. configured) < 0.01))
    (Metrics.loss_summary inst mp r)

(* A task that never executes has no empirical loss estimate:
   measured_loss_rate is nan (0/0), loss_summary reports None, and the
   report renders n/a instead of propagating the nan. *)
let test_metrics_loss_summary_never_executed () =
  let wf = Workflow.chain ~types:[| 0; 1 |] in
  let inst =
    Instance.create ~workflow:wf ~machines:2
      ~w:[| [| 10.0; 10.0 |]; [| 1000.0; 1000.0 |] |]
      ~f:(Array.make_matrix 2 2 0.0)
  in
  let mp = Mapping.of_array inst [| 0; 1 |] in
  (* Task 1 starts at t = 10 and would finish at 1010, past the horizon. *)
  let r = Desim.run ~warmup:0.0 ~horizon:50.0 ~seed:1 inst mp in
  Alcotest.(check int) "task 1 never executed" 0 r.Desim.executions.(1);
  Alcotest.(check bool) "measured_loss_rate is nan" true
    (Float.is_nan (Desim.measured_loss_rate r ~task:1));
  (match Metrics.loss_summary inst mp r with
  | [ (0, Some rate0, _); (1, None, _) ] ->
    Alcotest.(check bool) "task 0 estimated" true (rate0 >= 0.0)
  | _ -> Alcotest.fail "expected Some for task 0 and None for task 1");
  let text = Metrics.report inst mp r in
  let contains needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "report renders n/a" true (contains "n/a" text);
  Alcotest.(check bool) "report has no nan" false (contains "nan" text)

let test_metrics_report_renders () =
  let inst = Gen.chain (Rng.create 2) (Gen.default ~tasks:5 ~types:2 ~machines:3) in
  let mp = Mf_heuristics.Registry.solve Mf_heuristics.Registry.H4w inst in
  let r = Desim.run ~horizon:1.0e5 ~seed:2 inst mp in
  let text = Metrics.report inst mp r in
  Alcotest.(check bool) "mentions bottleneck" true
    (String.length text > 0
    &&
    let rec contains i =
      i + 10 <= String.length text && (String.sub text i 10 = "bottleneck" || contains (i + 1))
    in
    contains 0)

(* ------------------------------------------------------------------ *)
(* Dynamics: breakdowns, repairs, online re-mapping                    *)
(* ------------------------------------------------------------------ *)

module Breakdown = Mf_sim.Breakdown
module Online = Mf_remap.Online

let float_bits_equal a b =
  Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* The behavioural fields of two results — everything the paper's model
   observes; breakdown accounting is deliberately excluded so degenerate
   laws can be compared against the plain simulation. *)
let check_behaviour_equal msg (a : Desim.result) (b : Desim.result) =
  Alcotest.(check int) (msg ^ ": outputs") a.Desim.outputs b.Desim.outputs;
  Alcotest.(check int) (msg ^ ": consumed") a.Desim.consumed b.Desim.consumed;
  Alcotest.(check (array int)) (msg ^ ": lost") a.Desim.lost b.Desim.lost;
  Alcotest.(check (array int)) (msg ^ ": executions") a.Desim.executions b.Desim.executions;
  Alcotest.(check bool) (msg ^ ": busy bit-identical") true
    (Array.for_all2 float_bits_equal a.Desim.busy b.Desim.busy);
  Alcotest.(check bool) (msg ^ ": throughput bit-identical") true
    (float_bits_equal a.Desim.throughput b.Desim.throughput)

let dyn_instance () =
  let inst = Gen.chain (Rng.create 7) (Gen.default ~tasks:6 ~types:2 ~machines:3) in
  let mp = Mf_heuristics.Registry.solve Mf_heuristics.Registry.H4w inst in
  (inst, mp)

let test_dyn_mttr_zero_byte_identical () =
  let inst, mp = dyn_instance () in
  let p = Period.period inst mp in
  let horizon = 500.0 *. p in
  let plain = Desim.run ~horizon ~seed:11 inst mp in
  let model =
    Breakdown.uniform ~machines:(Instance.machines inst) ~mtbf:(2.0 *. p) ~mttr:0.0 ()
  in
  let dyn = Desim.run ~breakdowns:model ~horizon ~seed:11 inst mp in
  check_behaviour_equal "mttr=0" plain dyn;
  (* the model really engaged: instant repairs were folded, not skipped *)
  Alcotest.(check bool) "instant repairs counted" true
    (Array.fold_left ( + ) 0 dyn.Desim.breakdowns > 0);
  Alcotest.(check (array (float 0.0))) "no downtime"
    (Array.make (Instance.machines inst) 0.0) dyn.Desim.downtime

let test_dyn_mtbf_infinite_byte_identical () =
  let inst, mp = dyn_instance () in
  let p = Period.period inst mp in
  let horizon = 500.0 *. p in
  let plain = Desim.run ~horizon ~seed:12 inst mp in
  let model =
    Breakdown.uniform ~machines:(Instance.machines inst) ~mtbf:infinity ~mttr:(5.0 *. p) ()
  in
  let dyn = Desim.run ~breakdowns:model ~horizon ~seed:12 inst mp in
  check_behaviour_equal "mtbf=inf" plain dyn;
  Alcotest.(check (array int)) "no breakdowns"
    (Array.make (Instance.machines inst) 0) dyn.Desim.breakdowns

let test_dyn_all_down_zero_throughput () =
  (* Two independent single-task lines: both machines work from t = 0, so
     both accrue hazard and go down (an idle machine never fails — the
     hazard is operation-dependent). *)
  let wf = Workflow.in_forest ~types:[| 0; 0 |] ~successor:[| None; None |] in
  let inst =
    Instance.create ~workflow:wf ~machines:2
      ~w:(Array.make_matrix 2 2 10.0)
      ~f:(Array.make_matrix 2 2 0.0)
  in
  let mp = Mapping.of_array inst [| 0; 1 |] in
  (* Hazard explodes on the first execution; repairs never finish: the
     whole factory is down almost immediately and forever. *)
  let model = Breakdown.uniform ~machines:2 ~mtbf:1e-6 ~mttr:infinity ~crews:1 () in
  let r = Desim.run ~breakdowns:model ~warmup:100.0 ~horizon:10000.0 ~seed:3 inst mp in
  Alcotest.(check int) "zero outputs" 0 r.Desim.outputs;
  Alcotest.(check (float 0.0)) "zero throughput" 0.0 r.Desim.throughput;
  Alcotest.(check bool) "both machines counted down" true
    (Array.for_all (fun d -> d > 0.0) r.Desim.downtime);
  Array.iter
    (fun a ->
      Alcotest.(check bool) "availability in [0,1)" true (a >= 0.0 && a < 1.0))
    (Metrics.measured_availability r);
  let text = Metrics.dynamic_report ~model inst mp r in
  let contains needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "report renders" true (String.length text > 0);
  Alcotest.(check bool) "report has no nan" false (contains "nan" text);
  (* the loss summary still renders n/a for the starved downstream task *)
  let summary = Metrics.report inst mp r in
  Alcotest.(check bool) "summary has no nan" false (contains "nan" summary)

let test_dyn_availability_convergence () =
  let wf = Workflow.chain ~types:[| 0; 0 |] in
  let inst =
    Instance.create ~workflow:wf ~machines:1
      ~w:(Array.make_matrix 2 1 10.0)
      ~f:(Array.make_matrix 2 1 0.0)
  in
  let mp = Mapping.of_array inst [| 0; 0 |] in
  let p = Period.period inst mp in
  let model = Breakdown.uniform ~machines:1 ~mtbf:(20.0 *. p) ~mttr:(10.0 *. p) () in
  let expected = Metrics.adjusted_throughput inst mp model in
  Alcotest.(check (float 1e-9)) "analytic adjusted" (2.0 /. 3.0 /. p) expected;
  let r = Desim.run ~breakdowns:model ~horizon:(4000.0 *. p) ~seed:5 inst mp in
  let rel = Float.abs (r.Desim.throughput -. expected) /. expected in
  Alcotest.(check bool)
    (Printf.sprintf "within 10%% of availability-adjusted (rel %.3f)" rel)
    true (rel < 0.1)

let test_dyn_wear_increases_breakdowns () =
  let inst, mp = dyn_instance () in
  let p = Period.period inst mp in
  let run wear =
    let model =
      Breakdown.uniform ~machines:(Instance.machines inst) ~mtbf:(50.0 *. p)
        ~mttr:(0.5 *. p) ~wear ()
    in
    let r = Desim.run ~breakdowns:model ~horizon:(2000.0 *. p) ~seed:9 inst mp in
    Array.fold_left ( + ) 0 r.Desim.breakdowns
  in
  let base = run 0.0 and worn = run 0.5 in
  Alcotest.(check bool)
    (Printf.sprintf "history-based hazard fails more (%d vs %d)" worn base)
    true (worn > base)

let test_dyn_crews_contention () =
  let inst, mp = dyn_instance () in
  let p = Period.period inst mp in
  let run crews =
    let model =
      Breakdown.uniform ~machines:(Instance.machines inst) ~mtbf:(5.0 *. p)
        ~mttr:(20.0 *. p) ~crews ()
    in
    let r = Desim.run ~breakdowns:model ~horizon:(2000.0 *. p) ~seed:13 inst mp in
    Array.fold_left ( +. ) 0.0 r.Desim.downtime
  in
  Alcotest.(check bool) "one crew queues more downtime than three" true
    (run 1 >= run 3)

(* The flagship dynamic scenario in miniature: a balanced 4-machine line
   where only machine 0 fails.  Doing nothing caps throughput at the
   availability-adjusted steady state a/p; re-mapping keeps 3 of 4
   machines' worth of capacity during outages and restores the designed
   mapping after each repair. *)
let remap_scenario () =
  let wf = Workflow.chain ~types:(Array.make 8 0) in
  let inst =
    Instance.create ~workflow:wf ~machines:4
      ~w:(Array.make_matrix 8 4 10.0)
      ~f:(Array.make_matrix 8 4 0.0)
  in
  let mp = Mapping.of_array inst [| 0; 0; 1; 1; 2; 2; 3; 3 |] in
  let p = Period.period inst mp in
  let laws = Array.make 4 Breakdown.immortal in
  laws.(0) <- { Breakdown.mtbf = 30.0 *. p; mttr = 10.0 *. p; wear = 0.0 };
  let model = Breakdown.make ~crews:1 laws in
  (inst, mp, p, model)

let test_dyn_remap_recovers () =
  let inst, mp, p, model = remap_scenario () in
  let horizon = 2000.0 *. p in
  let static = Desim.run ~breakdowns:model ~horizon ~seed:21 inst mp in
  let remap = Online.simulate ~breakdowns:model ~horizon ~seed:21 inst mp in
  Alcotest.(check bool) "re-mapping commits happened" true (remap.Desim.remaps >= 2);
  Alcotest.(check bool) "latency recorded per commit" true
    (Array.length remap.Desim.remap_latencies = remap.Desim.remaps);
  Alcotest.(check bool) "re-map beats do-nothing" true
    (remap.Desim.outputs > static.Desim.outputs);
  let avail = Breakdown.availability model.Breakdown.laws.(0) in
  let adjusted = Metrics.adjusted_throughput inst mp model in
  Alcotest.(check (float 1e-9)) "adjusted = a/p" (avail /. p) adjusted;
  let recovery =
    (remap.Desim.throughput -. adjusted) /. ((1.0 /. p) -. adjusted)
  in
  Alcotest.(check bool)
    (Printf.sprintf "recovers at least half the gap (%.2f)" recovery)
    true (recovery >= 0.5);
  (* the designed mapping is restored after repairs: seed 21 ends with
     machine 0 up, so the final live mapping is the designed one *)
  Alcotest.(check (array int)) "designed mapping restored"
    (Mapping.to_array mp) remap.Desim.final_mapping

let test_dyn_replay_bit_identical () =
  let inst, mp, p, model = remap_scenario () in
  let horizon = 1000.0 *. p in
  let run () = Online.simulate ~breakdowns:model ~horizon ~seed:42 inst mp in
  let a = run () and b = run () in
  check_behaviour_equal "replay" a b;
  Alcotest.(check int) "same remaps" a.Desim.remaps b.Desim.remaps;
  Alcotest.(check bool) "same latencies" true
    (Array.for_all2 float_bits_equal a.Desim.remap_latencies b.Desim.remap_latencies);
  Alcotest.(check (array int)) "same final mapping" a.Desim.final_mapping
    b.Desim.final_mapping;
  Alcotest.(check bool) "same downtime bits" true
    (Array.for_all2 float_bits_equal a.Desim.downtime b.Desim.downtime)

(* The jobs-identity pattern from test_parallel/test_exact, extended to the
   dynamic simulator: a Runner grid whose cells run breakdowns + re-mapper
   must be byte-identical at --jobs 1 and --jobs 2. *)
let test_dyn_jobs_identity () =
  let module Runner = Mf_experiments.Runner in
  let gen ~x ~seed =
    Gen.chain (Rng.create seed) (Gen.default ~tasks:x ~types:2 ~machines:3)
  in
  let solve inst ~seed =
    let mp = Mf_heuristics.Registry.solve Mf_heuristics.Registry.H4w inst in
    let p = Period.period inst mp in
    let model =
      Breakdown.uniform ~machines:(Instance.machines inst) ~mtbf:(16.0 *. p)
        ~mttr:(4.0 *. p) ~crews:1 ()
    in
    let r = Online.simulate ~breakdowns:model ~horizon:(300.0 *. p) ~seed inst mp in
    Some r.Desim.throughput
  in
  let algos = [ { Runner.label = "dyn-remap"; solve } ] in
  let run ?pool () =
    Runner.run ~id:"dyn-jobs" ~title:"dynamic jobs identity" ~x_label:"tasks"
      ~xs:[ 5; 8 ] ~replicates:2 ~gen ~algos ?pool ()
  in
  let fig1 = run () and fig2 = run ~pool:(Mf_parallel.Pool.shared ~domains:2) () in
  List.iter2
    (fun (p1 : Runner.point) (p2 : Runner.point) ->
      Alcotest.(check int) "same x" p1.Runner.x p2.Runner.x;
      List.iter2
        (fun (c1 : Runner.cell) (c2 : Runner.cell) ->
          Alcotest.(check string) "same label" c1.Runner.label c2.Runner.label;
          Array.iter2
            (fun v1 v2 ->
              Alcotest.(check bool) "bit-identical cell" true
                (match (v1, v2) with
                | Some a, Some b -> float_bits_equal a b
                | None, None -> true
                | _ -> false))
            c1.Runner.values c2.Runner.values)
        p1.Runner.cells p2.Runner.cells)
    fig1.Runner.points fig2.Runner.points

let test_dyn_validation () =
  Alcotest.check_raises "bad mtbf"
    (Invalid_argument "Breakdown: mtbf must be positive (infinity = never fails)")
    (fun () -> ignore (Breakdown.uniform ~machines:1 ~mtbf:0.0 ~mttr:1.0 ()));
  Alcotest.check_raises "bad crews"
    (Invalid_argument "Breakdown.make: need at least one crew") (fun () ->
      ignore (Breakdown.uniform ~machines:1 ~mtbf:1.0 ~mttr:1.0 ~crews:0 ()));
  let inst, mp = dyn_instance () in
  let model = Breakdown.uniform ~machines:1 ~mtbf:1.0 ~mttr:1.0 () in
  Alcotest.check_raises "model size mismatch"
    (Invalid_argument "Desim.run: breakdown model sized for a different machine count")
    (fun () -> ignore (Desim.run ~breakdowns:model ~horizon:100.0 ~seed:1 inst mp))

(* The BENCH_dynamic chain: 56 equal tasks on 8 machines, 7 each
   ([i mod 8]); only machine 0 fails (mtbf 48 periods, mttr 16, one
   crew). *)
let bench_dynamic_chain () =
  let n = 56 and m = 8 in
  let inst =
    Instance.create
      ~workflow:(Workflow.chain ~types:(Array.make n 0))
      ~machines:m ~w:(Array.make_matrix n m 100.0) ~f:(Array.make_matrix n m 0.0)
  in
  let mp = Mapping.of_array inst (Array.init n (fun i -> i mod m)) in
  let p = Period.period inst mp in
  let laws = Array.make m Breakdown.immortal in
  laws.(0) <- { Breakdown.mtbf = 48.0 *. p; mttr = 16.0 *. p; wear = 0.0 };
  (inst, mp, p, Breakdown.make ~crews:1 laws)

(* perfbench's in-tree: n=40, p=4, m=12 under its H4w mapping. *)
let bench_in_tree () =
  let inst = Gen.in_tree (Rng.create 7) (Gen.default ~tasks:40 ~types:4 ~machines:12) in
  let mp = Mf_heuristics.H4_family.h4w inst in
  (inst, mp, Period.period inst mp)

(* Exact values of three runs, recorded from the simulator before its
   dispatch became event-driven: a change to dispatch, the calendar or
   the re-mapper's evaluator that alters any event shows here, where the
   replay tests (a run against itself) cannot see it. *)
let test_dyn_bit_identity_pin () =
  let sum = Array.fold_left ( + ) 0 in
  let hex = Printf.sprintf "%h" in
  let counted run =
    let events = ref 0 in
    let r = run (fun _ -> incr events) in
    (r, !events)
  in
  let pin what (r : Desim.result) events ~outputs ~consumed ~executions ~lost
      ~throughput ~busy0 ~n_events =
    let c s = what ^ ": " ^ s in
    Alcotest.(check int) (c "outputs") outputs r.Desim.outputs;
    Alcotest.(check int) (c "consumed") consumed r.Desim.consumed;
    Alcotest.(check int) (c "executions") executions (sum r.Desim.executions);
    Alcotest.(check int) (c "lost") lost (sum r.Desim.lost);
    Alcotest.(check string) (c "throughput") throughput (hex r.Desim.throughput);
    Alcotest.(check string) (c "busy.(0)") busy0 (hex r.Desim.busy.(0));
    Alcotest.(check int) (c "events") n_events events
  in
  let inst, mp, p, model = bench_dynamic_chain () in
  let r, events =
    counted (fun on_event ->
        Online.simulate ~breakdowns:model ~horizon:(256.0 *. p) ~seed:1 ~on_event inst mp)
  in
  pin "chain" r events ~outputs:196 ~consumed:260 ~executions:13504 ~lost:0
    ~throughput:"0x1.6666666666666p-10" ~busy0:"0x1.c29860e892824p+16" ~n_events:27282;
  Alcotest.(check (array int)) "chain: breakdowns" [| 6; 0; 0; 0; 0; 0; 0; 0 |]
    r.Desim.breakdowns;
  Alcotest.(check int) "chain: remaps" 12 r.Desim.remaps;
  Alcotest.(check (array int)) "chain: designed mapping restored" (Mapping.to_array mp)
    r.Desim.final_mapping;
  let inst, mp, p = bench_in_tree () in
  let model =
    Breakdown.uniform ~machines:12 ~mtbf:(50.0 *. p) ~mttr:(5.0 *. p) ~crews:2 ()
  in
  let r, events =
    counted (fun on_event ->
        Online.simulate ~breakdowns:model ~horizon:(64.0 *. p) ~seed:1 ~on_event inst mp)
  in
  pin "in-tree" r events ~outputs:90 ~consumed:3923 ~executions:6679 ~lost:85
    ~throughput:"0x1.61d77013743e2p-11" ~busy0:"0x1.bed22a1c9c9edp+16" ~n_events:13564;
  Alcotest.(check (array int)) "in-tree: breakdowns"
    [| 4; 2; 0; 0; 1; 2; 0; 2; 1; 1; 2; 2 |] r.Desim.breakdowns;
  Alcotest.(check int) "in-tree: remaps" 33 r.Desim.remaps;
  let r, events =
    counted (fun on_event ->
        Desim.run ~buffer_capacity:1 ~horizon:(200.0 *. p) ~seed:2 ~on_event inst mp)
  in
  pin "blocking in-tree" r events ~outputs:158 ~consumed:4075 ~executions:8512 ~lost:121
    ~throughput:"0x1.8d8f8657d94dcp-12" ~busy0:"0x1.fcb3c7a788108p+18" ~n_events:17224

(* The dispatch loop allocates a few words per event at most: a boxed
   event payload or a closure per readiness check shows up as tens of
   words.  Native code only: bytecode boxes every float. *)
let test_dyn_allocation_guard () =
  match Sys.backend_type with
  | Sys.Bytecode | Sys.Other _ -> Alcotest.skip ()
  | Sys.Native ->
    let inst, mp, p, _ = bench_dynamic_chain () in
    let horizon = 200.0 *. p in
    let before = Gc.minor_words () in
    ignore (Desim.run ~horizon ~seed:1 inst mp);
    let words = Gc.minor_words () -. before in
    let events = ref 0 in
    ignore (Desim.run ~horizon ~seed:1 ~on_event:(fun _ -> incr events) inst mp);
    let per_event = words /. float_of_int !events in
    Alcotest.(check bool)
      (Printf.sprintf "%.1f minor words per event (%d events) <= 8" per_event !events)
      true (per_event <= 8.0)

(* [Plan.repair] reloads the state it is given, so planning a sequence of
   (mapping, down) snapshots in one reused state must give exactly the
   plans of a fresh state per call.  The snapshots follow remap-safety's
   discipline: toggle one machine, plan, fold the plan into the live
   mapping.  Half the instances have machine-independent failures, where
   every move skips its upstream walk. *)
let test_dyn_plan_reused_state () =
  let module Plan = Mf_remap.Plan in
  let module State = Mf_eval.State in
  for case = 0 to 23 do
    let rng = Rng.create (500 + case) in
    let n = 4 + Rng.int rng 12 and m = 3 + Rng.int rng 4 in
    let p = 1 + Rng.int rng 3 in
    let params =
      { (Gen.default ~tasks:n ~types:p ~machines:m) with
        Gen.task_attached_failures = case mod 2 = 0 }
    in
    let inst =
      if case mod 4 < 2 then Gen.in_tree (Rng.create case) params
      else Gen.chain (Rng.create case) params
    in
    let live =
      Mapping.to_array (Mf_heuristics.Registry.solve Mf_heuristics.Registry.H4w inst)
    in
    let down = Array.make m false in
    let st = State.create inst in
    for step = 1 to 12 do
      let u = Rng.int rng m in
      down.(u) <- not down.(u);
      if Array.for_all Fun.id down then down.(u) <- false;
      let budget = [| 0; 60; Plan.default_budget |].(step mod 3) in
      let reused = Plan.repair ~budget st ~mapping:live ~down in
      let fresh = Plan.repair ~budget (State.create inst) ~mapping:live ~down in
      if compare reused fresh <> 0 then
        Alcotest.failf "case %d step %d: the reused state planned differently" case step;
      match reused with
      | Some plan -> Array.iter (fun (i, v) -> live.(i) <- v) plan.Plan.moves
      | None -> ()
    done
  done

(* A re-mapper owns its evaluation state, so simulations run on two
   domains at once must reproduce the serial runs exactly: a state shared
   between re-mappers (a module-level one, say) would mix their plans. *)
let test_dyn_remappers_two_domains () =
  let module Pool = Mf_parallel.Pool in
  let chain, chain_mp, chain_p, chain_bd = bench_dynamic_chain () in
  let tree, tree_mp, tree_p = bench_in_tree () in
  let tree_bd =
    Breakdown.uniform ~machines:12 ~mtbf:(50.0 *. tree_p) ~mttr:(5.0 *. tree_p) ~crews:2 ()
  in
  let jobs =
    Array.init 8 (fun k ->
        if k mod 2 = 0 then (chain, chain_mp, chain_bd, 128.0 *. chain_p, k)
        else (tree, tree_mp, tree_bd, 32.0 *. tree_p, k))
  in
  let run (inst, mp, bd, horizon, seed) =
    Online.simulate ~breakdowns:bd ~horizon ~seed inst mp
  in
  let serial = Array.map run jobs in
  let parallel =
    Pool.with_pool ~domains:2 (fun pool -> Pool.map_array ~chunk:1 pool ~f:run jobs)
  in
  Array.iteri
    (fun k (a : Desim.result) ->
      let b = parallel.(k) in
      let what = Printf.sprintf "job %d" k in
      check_behaviour_equal what a b;
      Alcotest.(check bool) (what ^ ": re-mapped") true (a.Desim.remaps > 0);
      Alcotest.(check bool) (what ^ ": whole result equal") true (compare a b = 0))
    serial

(* A re-map decision reuses its re-mapper's evaluation state and commits
   moves in place: what it allocates is its plan and its result, not a
   rebuilt state (about 7,600 words per decision on this chain), a record
   per committed move or a from-scratch period.  Native code only:
   bytecode boxes every float. *)
let test_dyn_remap_allocation_guard () =
  match Sys.backend_type with
  | Sys.Bytecode | Sys.Other _ -> Alcotest.skip ()
  | Sys.Native ->
    let inst, mp, p, model = bench_dynamic_chain () in
    let rm = Online.remapper ~original:mp inst in
    let words = ref 0.0 and calls = ref 0 in
    let remapper ~time ~down ~mapping change =
      let before = Gc.minor_words () in
      let d = rm ~time ~down ~mapping change in
      words := !words +. (Gc.minor_words () -. before);
      incr calls;
      d
    in
    let r = Desim.run ~breakdowns:model ~remapper ~horizon:(256.0 *. p) ~seed:1 inst mp in
    Alcotest.(check bool) "re-mapped" true (r.Desim.remaps > 0);
    let per_call = !words /. float_of_int !calls in
    Alcotest.(check bool)
      (Printf.sprintf "%.0f minor words per decision (%d decisions) <= 1250" per_call !calls)
      true (per_call <= 1250.0)

let () =
  Alcotest.run "mf_sim"
    [
      ( "calendar",
        [
          Alcotest.test_case "order" `Quick test_calendar_order;
          Alcotest.test_case "fifo ties" `Quick test_calendar_fifo_on_ties;
          Alcotest.test_case "bad time" `Quick test_calendar_rejects_bad_time;
        ] );
      ( "deterministic",
        [
          Alcotest.test_case "two-stage line" `Quick test_sim_no_failures_throughput;
          Alcotest.test_case "single machine" `Quick test_sim_single_machine_sum;
        ] );
      ( "stochastic",
        [
          Alcotest.test_case "matches analytic" `Slow test_sim_matches_analytic_with_failures;
          Alcotest.test_case "matches analytic on join" `Slow test_sim_matches_analytic_on_join;
          Alcotest.test_case "loss rates" `Slow test_sim_empirical_loss_rates;
          Alcotest.test_case "consumption" `Quick test_sim_consumed_exceeds_outputs;
          Alcotest.test_case "determinism" `Quick test_sim_deterministic;
          Alcotest.test_case "event stream" `Quick test_sim_event_stream_sane;
          Alcotest.test_case "validation" `Quick test_sim_validation;
        ] );
      ( "blocking",
        [
          Alcotest.test_case "capacity blocks" `Quick test_sim_buffer_capacity_blocks;
          Alcotest.test_case "throughput monotone" `Quick test_sim_buffer_capacity_throughput_monotone;
          Alcotest.test_case "bounded never beats unbounded" `Quick
            test_sim_bounded_never_beats_unbounded;
          Alcotest.test_case "capacity 1 chain progress" `Quick
            test_sim_capacity_one_chain_progress;
          Alcotest.test_case "assembly no starvation" `Quick
            test_sim_assembly_shared_machine_no_starvation;
          Alcotest.test_case "cross-machine livelock" `Quick
            test_sim_cross_machine_livelock;
          Alcotest.test_case "validation" `Quick test_sim_buffer_capacity_validation;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "utilisation" `Quick test_metrics_utilisation;
          Alcotest.test_case "loss summary" `Quick test_metrics_loss_summary;
          Alcotest.test_case "loss summary n/a" `Quick
            test_metrics_loss_summary_never_executed;
          Alcotest.test_case "report" `Quick test_metrics_report_renders;
        ] );
      ( "dynamic",
        [
          Alcotest.test_case "mttr=0 byte-identical" `Quick
            test_dyn_mttr_zero_byte_identical;
          Alcotest.test_case "mtbf=inf byte-identical" `Quick
            test_dyn_mtbf_infinite_byte_identical;
          Alcotest.test_case "all machines down" `Quick test_dyn_all_down_zero_throughput;
          Alcotest.test_case "availability convergence" `Slow
            test_dyn_availability_convergence;
          Alcotest.test_case "wear increases breakdowns" `Slow
            test_dyn_wear_increases_breakdowns;
          Alcotest.test_case "crew contention" `Slow test_dyn_crews_contention;
          Alcotest.test_case "re-map recovers" `Slow test_dyn_remap_recovers;
          Alcotest.test_case "replay bit-identical" `Quick test_dyn_replay_bit_identical;
          Alcotest.test_case "jobs identity" `Quick test_dyn_jobs_identity;
          Alcotest.test_case "validation" `Quick test_dyn_validation;
          Alcotest.test_case "bit-identity pin" `Quick test_dyn_bit_identity_pin;
          Alcotest.test_case "allocation guard" `Quick test_dyn_allocation_guard;
          Alcotest.test_case "plan in a reused state" `Quick test_dyn_plan_reused_state;
          Alcotest.test_case "remappers on two domains" `Quick test_dyn_remappers_two_domains;
          Alcotest.test_case "remap allocation guard" `Quick test_dyn_remap_allocation_guard;
        ] );
      ("props", List.map QCheck_alcotest.to_alcotest [ prop_sim_close_to_analytic ]);
    ]
