(* Tests for mf_parallel: the domain pool's determinism contract (results
   identical for any pool size), exception propagation, shutdown, and the
   jobs-invariance of the experiment runner built on top of it. *)

module Pool = Mf_parallel.Pool
module Runner = Mf_experiments.Runner
module Registry = Mf_heuristics.Registry

exception Boom of int

let jobs_grid = [ 1; 2; 4 ]

(* ------------------------------------------------------------------ *)
(* Pool                                                                *)
(* ------------------------------------------------------------------ *)

let test_map_array_matches_serial () =
  let input = Array.init 500 (fun i -> i) in
  let f i = (i * i) + (i mod 7) in
  let expected = Array.map f input in
  List.iter
    (fun jobs ->
      Pool.with_pool ~domains:jobs (fun pool ->
          Alcotest.(check (array int))
            (Printf.sprintf "jobs=%d equals serial" jobs)
            expected
            (Pool.map_array pool ~f input)))
    jobs_grid

let test_map_array_empty_and_single () =
  Pool.with_pool ~domains:4 (fun pool ->
      Alcotest.(check (array int)) "empty" [||] (Pool.map_array pool ~f:(fun x -> x) [||]);
      Alcotest.(check (array int)) "single" [| 9 |]
        (Pool.map_array pool ~f:(fun x -> x * x) [| 3 |]))

let test_map_reduce_index_order () =
  (* A non-commutative combine exposes any ordering leak. *)
  let input = Array.init 64 string_of_int in
  let expected = Array.fold_left ( ^ ) "" input in
  List.iter
    (fun jobs ->
      Pool.with_pool ~domains:jobs (fun pool ->
          Alcotest.(check string)
            (Printf.sprintf "jobs=%d concatenation in index order" jobs)
            expected
            (Pool.map_reduce pool ~f:Fun.id ~combine:( ^ ) ~init:"" input)))
    jobs_grid

let test_exception_propagation () =
  List.iter
    (fun jobs ->
      Pool.with_pool ~domains:jobs (fun pool ->
          (* Many tiny tasks, one raising: the batch drains, the exception
             reaches the submitter, and the pool stays usable. *)
          let input = Array.init 1000 (fun i -> i) in
          (try
             ignore
               (Pool.map_array pool input ~f:(fun i -> if i = 321 then raise (Boom i) else i));
             Alcotest.fail "exception not propagated"
           with Boom i -> Alcotest.(check int) "boom index" 321 i);
          Alcotest.(check (array int)) "pool usable after failure"
            (Array.map (fun i -> i + 1) input)
            (Pool.map_array pool input ~f:(fun i -> i + 1))))
    jobs_grid

let test_exception_smallest_index_wins () =
  (* Several failing units: the re-raised exception must be the one of the
     smallest index, whatever the scheduling. *)
  List.iter
    (fun jobs ->
      Pool.with_pool ~domains:jobs (fun pool ->
          let input = Array.init 200 (fun i -> i) in
          try
            ignore
              (Pool.map_array pool input ~f:(fun i ->
                   if i mod 50 = 17 then raise (Boom i) else i));
            Alcotest.fail "exception not propagated"
          with Boom i -> Alcotest.(check int) "smallest failing index" 17 i))
    jobs_grid

let test_chunk_matches_serial () =
  (* Explicit chunk sizes — including degenerate ones larger than the
     input — must not change results or ordering. *)
  let input = Array.init 257 (fun i -> i) in
  let f i = (i * 31) mod 101 in
  let expected = Array.map f input in
  List.iter
    (fun jobs ->
      Pool.with_pool ~domains:jobs (fun pool ->
          List.iter
            (fun chunk ->
              Alcotest.(check (array int))
                (Printf.sprintf "jobs=%d chunk=%d map_array" jobs chunk)
                expected
                (Pool.map_array pool ~chunk ~f input);
              Alcotest.(check int)
                (Printf.sprintf "jobs=%d chunk=%d map_reduce" jobs chunk)
                (Array.fold_left ( + ) 0 expected)
                (Pool.map_reduce pool ~chunk ~f ~combine:( + ) ~init:0 input))
            [ 1; 3; 64; 1000 ]))
    jobs_grid

let test_chunk_smallest_index_wins () =
  (* The smallest-failing-index guarantee must survive chunked dispatch. *)
  List.iter
    (fun chunk ->
      Pool.with_pool ~domains:4 (fun pool ->
          let input = Array.init 200 (fun i -> i) in
          try
            ignore
              (Pool.map_array pool ~chunk input ~f:(fun i ->
                   if i mod 50 = 17 then raise (Boom i) else i));
            Alcotest.fail "exception not propagated"
          with Boom i -> Alcotest.(check int) "smallest failing index" 17 i))
    [ 1; 3; 64; 1000 ]

let test_chunk_validation () =
  Pool.with_pool ~domains:2 (fun pool ->
      Alcotest.check_raises "chunk must be positive"
        (Invalid_argument "Pool.map_array: chunk must be positive") (fun () ->
          ignore (Pool.map_array pool ~chunk:0 ~f:Fun.id [| 1 |])))

let test_stress_many_small_batches () =
  (* Many batches of tiny tasks through one pool: exercises the queue
     wake-ups and the per-call completion latch. *)
  Pool.with_pool ~domains:4 (fun pool ->
      for round = 1 to 50 do
        let n = 1 + (round mod 7) * 37 in
        let out = Pool.map_array pool ~f:(fun i -> i * 2) (Array.init n (fun i -> i)) in
        Alcotest.(check int) "length" n (Array.length out);
        Array.iteri (fun i v -> Alcotest.(check int) "value" (2 * i) v) out
      done)

let test_shutdown () =
  let pool = Pool.create ~domains:3 in
  Alcotest.(check int) "domains" 3 (Pool.domains pool);
  ignore (Pool.map_array pool ~f:succ (Array.init 10 (fun i -> i)));
  Pool.shutdown pool;
  (* Idempotent, and the pool refuses further work once its domains are
     joined. *)
  Pool.shutdown pool;
  Alcotest.check_raises "unusable after shutdown"
    (Invalid_argument "Pool.map_array: pool has been shut down") (fun () ->
      ignore (Pool.map_array pool ~f:succ [| 1 |]));
  let serial = Pool.create ~domains:1 in
  Alcotest.(check int) "serial pool" 1 (Pool.domains serial);
  Pool.shutdown serial;
  Alcotest.check_raises "at least one domain" (Invalid_argument "Pool.create: need at least one domain")
    (fun () -> ignore (Pool.create ~domains:0))

(* ------------------------------------------------------------------ *)
(* Pool stress: adversarial schedules                                  *)
(* ------------------------------------------------------------------ *)

(* A little data-dependent spin so units finish at scrambled times and
   steal interleavings vary between repetitions. *)
let spin i =
  let rounds = 50 + (i * 37 mod 11) * 120 in
  let acc = ref 0 in
  for k = 1 to rounds do
    acc := (!acc + (k * i)) mod 1_000_003
  done;
  !acc

let test_shutdown_while_busy () =
  (* Shutdown racing an in-flight batch submitted from another domain:
     the submitter can always drain its own batch, so the map completes
     correctly even though the workers are being joined under it. *)
  for _round = 1 to 5 do
    let pool = Pool.create ~domains:4 in
    let started = Atomic.make false in
    let input = Array.init 400 (fun i -> i) in
    let submitter =
      Domain.spawn (fun () ->
          Pool.map_array pool input ~f:(fun i ->
              Atomic.set started true;
              ignore (spin i);
              i * 2))
    in
    while not (Atomic.get started) do
      Domain.cpu_relax ()
    done;
    Pool.shutdown pool;
    let out = Domain.join submitter in
    Alcotest.(check (array int)) "batch completed despite shutdown"
      (Array.map (fun i -> i * 2) input)
      out
  done

let test_concurrent_map_array () =
  (* Two domains submitting batches to one pool at once: results slot by
     index per batch, idle domains steal across both. *)
  Pool.with_pool ~domains:3 (fun pool ->
      for _round = 1 to 5 do
        let inp1 = Array.init 300 (fun i -> i) in
        let inp2 = Array.init 211 (fun i -> i + 1000) in
        let other =
          Domain.spawn (fun () ->
              Pool.map_array pool inp2 ~f:(fun i ->
                  ignore (spin i);
                  i - 1000))
        in
        let out1 =
          Pool.map_array pool inp1 ~f:(fun i ->
              ignore (spin i);
              i * 3)
        in
        let out2 = Domain.join other in
        Alcotest.(check (array int)) "batch 1" (Array.map (fun i -> i * 3) inp1) out1;
        Alcotest.(check (array int)) "batch 2" (Array.init 211 Fun.id) out2
      done)

let test_nested_map_array () =
  (* A unit of work submitting an inner batch on the same pool: the inner
     submitter drains its own batch, so this cannot deadlock even with
     every other domain busy on the outer batch. *)
  Pool.with_pool ~domains:2 (fun pool ->
      let outer = Array.init 20 (fun i -> i) in
      let expected =
        Array.map (fun i -> Array.fold_left ( + ) 0 (Array.init 30 (fun j -> i + j))) outer
      in
      let out =
        Pool.map_array pool outer ~f:(fun i ->
            let inner = Pool.map_array pool ~chunk:4 (Array.init 30 (fun j -> j)) ~f:(fun j -> i + j) in
            Array.fold_left ( + ) 0 inner)
      in
      Alcotest.(check (array int)) "nested map_array" expected out)

let test_exception_determinism_across_schedules () =
  (* Smallest-failing-index must hold for every (jobs, chunk) pair and
     every steal interleaving; the spin scrambles completion order. *)
  List.iter
    (fun jobs ->
      Pool.with_pool ~domains:jobs (fun pool ->
          List.iter
            (fun chunk ->
              for _round = 1 to 3 do
                let input = Array.init 200 (fun i -> i) in
                try
                  ignore
                    (Pool.map_array pool ~chunk input ~f:(fun i ->
                         ignore (spin i);
                         if i mod 50 = 17 then raise (Boom i) else i));
                  Alcotest.fail "exception not propagated"
                with Boom i ->
                  Alcotest.(check int)
                    (Printf.sprintf "jobs=%d chunk=%d smallest index" jobs chunk)
                    17 i
              done)
            [ 1; 3; 64 ]))
    [ 2; 4 ]

let test_shared_pools () =
  (* [shared] clamps to default_jobs (no oversubscription), so the
     expected effective size depends on the host's core count. *)
  let eff = min 2 (Pool.default_jobs ()) in
  let p2 = Pool.shared ~domains:2 in
  Alcotest.(check bool) "same pool returned" true (p2 == Pool.shared ~domains:2);
  Alcotest.(check int) "size" eff (Pool.domains p2);
  Alcotest.(check int) "spawned workers" (eff - 1) (Pool.spawned p2);
  let out = Pool.map_array p2 ~f:succ (Array.init 64 (fun i -> i)) in
  Alcotest.(check (array int)) "works" (Array.init 64 succ) out;
  (* An explicitly shut-down shared pool is replaced on next request. *)
  Pool.shutdown p2;
  let p2' = Pool.shared ~domains:2 in
  Alcotest.(check bool) "replaced after shutdown" true (p2 != p2');
  ignore (Pool.map_array p2' ~f:succ [| 1 |]);
  Pool.shutdown_shared ();
  let p1 = Pool.shared ~domains:1 in
  Alcotest.(check int) "serial shared pool" 0 (Pool.spawned p1)

(* ------------------------------------------------------------------ *)
(* Runner jobs-invariance                                              *)
(* ------------------------------------------------------------------ *)

let small_figure ?pool ?chunk () =
  Runner.run ~id:"par" ~title:"par" ~x_label:"n" ?pool ?chunk ~xs:[ 4; 6; 8 ]
    ~replicates:4
    ~gen:(fun ~x ~seed ->
      Mf_workload.Gen.chain (Mf_prng.Rng.create seed)
        (Mf_workload.Gen.default ~tasks:x ~types:2 ~machines:4))
    ~algos:[ Runner.heuristic Registry.H4w; Runner.heuristic Registry.H2; Runner.heuristic Registry.H1 ]
    ()

let test_runner_jobs_invariant () =
  let serial = small_figure () in
  List.iter
    (fun jobs ->
      let fig = small_figure ~pool:(Pool.shared ~domains:jobs) () in
      (* Structural equality down to the raw float bits of every replicate:
         the whole point of per-unit seed derivation. *)
      Alcotest.(check bool)
        (Printf.sprintf "jobs=%d figure identical to serial" jobs)
        true
        (Stdlib.compare serial fig = 0))
    [ 2; 4 ]

let test_runner_chunk_invariant () =
  (* The figure must also be bit-identical across chunk sizes and on an
     external pool — the acceptance pin for the coarse-chunked runner. *)
  let serial = small_figure () in
  List.iter
    (fun chunk ->
      List.iter
        (fun jobs ->
          let fig = small_figure ~pool:(Pool.shared ~domains:jobs) ~chunk () in
          Alcotest.(check bool)
            (Printf.sprintf "jobs=%d chunk=%d identical to serial" jobs chunk)
            true
            (Stdlib.compare serial fig = 0))
        [ 2; 4 ])
    [ 1; 7 ];
  Pool.with_pool ~domains:3 (fun pool ->
      let fig = small_figure ~pool () in
      Alcotest.(check bool) "external pool identical to serial" true
        (Stdlib.compare serial fig = 0))

let () =
  Alcotest.run "mf_parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "map_array = serial map" `Quick test_map_array_matches_serial;
          Alcotest.test_case "empty and single" `Quick test_map_array_empty_and_single;
          Alcotest.test_case "map_reduce index order" `Quick test_map_reduce_index_order;
          Alcotest.test_case "exception propagation" `Quick test_exception_propagation;
          Alcotest.test_case "smallest index wins" `Quick test_exception_smallest_index_wins;
          Alcotest.test_case "chunked dispatch = serial map" `Quick test_chunk_matches_serial;
          Alcotest.test_case "chunked smallest index wins" `Quick test_chunk_smallest_index_wins;
          Alcotest.test_case "chunk validation" `Quick test_chunk_validation;
          Alcotest.test_case "stress small batches" `Quick test_stress_many_small_batches;
          Alcotest.test_case "shutdown" `Quick test_shutdown;
        ] );
      ( "pool-stress",
        [
          Alcotest.test_case "shutdown while busy" `Quick test_shutdown_while_busy;
          Alcotest.test_case "concurrent map_array" `Quick test_concurrent_map_array;
          Alcotest.test_case "nested map_array" `Quick test_nested_map_array;
          Alcotest.test_case "exception determinism across schedules" `Quick
            test_exception_determinism_across_schedules;
          Alcotest.test_case "shared pools" `Quick test_shared_pools;
        ] );
      ( "runner",
        [
          Alcotest.test_case "jobs-invariant figure" `Quick test_runner_jobs_invariant;
          Alcotest.test_case "chunk-invariant figure" `Quick test_runner_chunk_invariant;
        ] );
    ]
