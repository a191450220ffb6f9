(* Daemon tests: the wire protocol over socketpairs against a live
   scheduler.  The acceptance contract under test: every request line
   gets exactly one typed response; an [OK] line is byte-identical to
   the rendering of the in-process portfolio solve of the same request
   (modulo the [cached] flag when the shared cache answers); malformed
   input produces structured errors with the daemon staying up; CANCEL
   tears a running solve down promptly. *)

module Solver = Mf_solve.Solver
module Portfolio = Mf_solve.Portfolio
module Protocol = Mf_daemon.Protocol
module Server = Mf_daemon.Server
module Instance_io = Mf_core.Instance_io
module Gen = Mf_workload.Gen
module Rng = Mf_prng.Rng

let chain ~tasks ~types ~machines seed =
  Gen.chain (Rng.create seed) (Gen.default ~tasks ~types ~machines)

(* A big search at a budget that takes tens of seconds uncancelled:
   the mid-solve target (a broken cancel path fails loudly but
   boundedly). *)
let slow_request () =
  let inst = chain ~tasks:22 ~types:4 ~machines:10 7 in
  Solver.request_exn ~budget:(Solver.Nodes 2_000_000) inst

let with_server config f =
  let srv = Server.create ~config () in
  let devnull = open_out "/dev/null" in
  Fun.protect
    ~finally:(fun () ->
      Server.shutdown srv devnull;
      close_out devnull)
    (fun () -> f srv)

let small_config = { Server.jobs = 1; cache_capacity = 16; workers = 2 }

(* One wire connection: the server's reader runs on its own thread over
   a socketpair, exactly as [serve_unix] would run it per accept. *)
let connect srv =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let server_thread =
    Thread.create
      (fun () ->
        let ic = Unix.in_channel_of_descr a in
        let oc = Unix.out_channel_of_descr a in
        (try Server.serve_client srv ic oc with Sys_error _ | End_of_file -> ());
        try Unix.close a with Unix.Unix_error _ -> ())
      ()
  in
  let ic = Unix.in_channel_of_descr b in
  let oc = Unix.out_channel_of_descr b in
  let close () =
    (try Unix.close b with Unix.Unix_error _ -> ());
    Thread.join server_thread
  in
  (ic, oc, close)

let send oc s =
  output_string oc s;
  flush oc

let check_prefix msg prefix line =
  Alcotest.(check bool)
    (Printf.sprintf "%s: %S starts with %S" msg line prefix)
    true
    (String.starts_with ~prefix line)

let contains line needle =
  let n = String.length needle and l = String.length line in
  let rec go i = i + n <= l && (String.sub line i n = needle || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* concurrent clients: byte-identity with in-process solves             *)
(* ------------------------------------------------------------------ *)

(* Eight concurrent clients with mixed budgets, each on its own
   connection and distinct instance: exactly one [OK] line each,
   byte-identical to the in-process portfolio rendering. *)
let test_concurrent_byte_identity () =
  let n_clients = 8 in
  let budgets =
    [| Solver.Deadline_ms 5.0; Solver.Nodes 20_000; Solver.Unlimited |]
  in
  let id i = Printf.sprintf "c%d" i in
  let reqs =
    Array.init n_clients (fun i ->
        let inst = chain ~tasks:8 ~types:3 ~machines:4 (50 + i) in
        Solver.request_exn ~budget:budgets.(i mod Array.length budgets) inst)
  in
  let expected =
    Array.mapi (fun i req -> Protocol.render_outcome ~id:(id i) (Portfolio.solve req)) reqs
  in
  with_server
    { Server.jobs = 1; cache_capacity = 64; workers = 4 }
    (fun srv ->
      let got = Array.make n_clients "" in
      let clients =
        Array.init n_clients
          (Thread.create (fun i ->
               let ic, oc, close = connect srv in
               send oc (Protocol.render_solve ~id:(id i) reqs.(i));
               got.(i) <- input_line ic;
               close ()))
      in
      Array.iter Thread.join clients;
      Array.iteri
        (fun i line ->
          Alcotest.(check string)
            (Printf.sprintf "client %d response" i)
            (Protocol.mask_cached expected.(i))
            (Protocol.mask_cached line))
        got)

(* ------------------------------------------------------------------ *)
(* structured errors, framing survival                                  *)
(* ------------------------------------------------------------------ *)

let test_structured_errors () =
  with_server small_config (fun srv ->
      let ic, oc, close = connect srv in
      let inst = chain ~tasks:6 ~types:3 ~machines:3 9 in
      let framed = Instance_io.to_framed_string inst in
      send oc "FROBNICATE 1\n";
      check_prefix "unknown verb" "ERR - bad-verb" (input_line ic);
      (* bad header value: the instance block must still be consumed *)
      send oc ("SOLVE h1 budget=Q5\n" ^ framed);
      check_prefix "bad budget syntax" "ERR h1 bad-header" (input_line ic);
      (* empty header value: once indexed past the end of the string and
         killed the connection instead of answering *)
      send oc ("SOLVE h1e budget=\n" ^ framed);
      check_prefix "empty budget value" "ERR h1e bad-header" (input_line ic);
      send oc "SOLVE h2\nthis is not an instance\nend\n";
      check_prefix "broken instance" "ERR h2 bad-instance" (input_line ic);
      (* over-range deadline: parses, rejected by make_request *)
      send oc ("SOLVE h3 budget=D-5\n" ^ framed);
      check_prefix "negative deadline" "ERR h3 bad-request" (input_line ic);
      send oc ("SOLVE h4 budget=Dnan\n" ^ framed);
      check_prefix "NaN deadline" "ERR h4 bad-request" (input_line ic);
      send oc "CANCEL nobody\n";
      check_prefix "unknown id" "ERR nobody unknown-id" (input_line ic);
      (* after all of that, the daemon is still up and framed *)
      let req = Solver.request_exn ~budget:(Solver.Nodes 10_000) inst in
      send oc (Protocol.render_solve ~id:"h5" req);
      check_prefix "daemon still serves" "OK h5 " (input_line ic);
      close ())

(* ------------------------------------------------------------------ *)
(* cancellation                                                         *)
(* ------------------------------------------------------------------ *)

let test_cancel_midsolve () =
  with_server small_config (fun srv ->
      let ic, oc, close = connect srv in
      send oc (Protocol.render_solve ~id:"slow" (slow_request ()));
      Thread.delay 0.3 (* let a worker go deep into the search *);
      let t0 = Unix.gettimeofday () in
      send oc "CANCEL slow\n";
      let l1 = input_line ic in
      let l2 = input_line ic in
      let elapsed = Unix.gettimeofday () -. t0 in
      Alcotest.(check (list string))
        "cancel handshake"
        [ "CANCELLED slow"; "CANCELOK slow" ]
        (List.sort compare [ l1; l2 ]);
      Alcotest.(check bool)
        (Printf.sprintf "prompt teardown (%.3fs)" elapsed)
        true (elapsed < 5.0);
      close ())

(* With one worker, a queued job cancelled before admission is answered
   CANCELLED without ever solving. *)
let test_cancel_queued () =
  with_server
    { small_config with Server.workers = 1 }
    (fun srv ->
      let ic, oc, close = connect srv in
      send oc (Protocol.render_solve ~id:"a" (slow_request ()));
      Thread.delay 0.2 (* the only worker is now busy on [a] *);
      let quick =
        Solver.request_exn ~budget:(Solver.Nodes 5_000) (chain ~tasks:6 ~types:3 ~machines:3 9)
      in
      send oc (Protocol.render_solve ~id:"b" quick);
      send oc "CANCEL b\n";
      send oc "CANCEL a\n";
      let lines = List.init 4 (fun _ -> input_line ic) in
      Alcotest.(check (list string))
        "both cancelled"
        [ "CANCELLED a"; "CANCELLED b"; "CANCELOK a"; "CANCELOK b" ]
        (List.sort compare lines);
      close ())

let test_duplicate_id () =
  with_server
    { small_config with Server.workers = 1 }
    (fun srv ->
      let ic, oc, close = connect srv in
      send oc (Protocol.render_solve ~id:"d" (slow_request ()));
      Thread.delay 0.2;
      let quick =
        Solver.request_exn ~budget:(Solver.Nodes 5_000) (chain ~tasks:6 ~types:3 ~machines:3 9)
      in
      send oc (Protocol.render_solve ~id:"d" quick);
      check_prefix "duplicate active id" "ERR d duplicate-id" (input_line ic);
      send oc "CANCEL d\n";
      let lines = List.init 2 (fun _ -> input_line ic) in
      Alcotest.(check (list string))
        "original request torn down"
        [ "CANCELLED d"; "CANCELOK d" ]
        (List.sort compare lines);
      close ())

(* ------------------------------------------------------------------ *)
(* shared cache + STATS                                                 *)
(* ------------------------------------------------------------------ *)

let test_stats_cache () =
  with_server small_config (fun srv ->
      let ic, oc, close = connect srv in
      let inst = chain ~tasks:8 ~types:3 ~machines:4 21 in
      let req = Solver.request_exn ~budget:(Solver.Nodes 20_000) inst in
      send oc (Protocol.render_solve ~id:"s1" req);
      let r1 = input_line ic in
      check_prefix "first solve" "OK s1 " r1;
      Alcotest.(check bool) "first solve not cached" true (contains r1 " cached=0 ");
      send oc (Protocol.render_solve ~id:"s2" req);
      let r2 = input_line ic in
      Alcotest.(check bool) "second solve cache hit" true (contains r2 " cached=1 ");
      (* the cache hit is bit-identical to a fresh in-process solve
         modulo the cached flag *)
      Alcotest.(check string)
        "cache hit byte-identical modulo cached flag"
        (Protocol.render_outcome ~id:"s2" (Portfolio.solve req))
        (Protocol.mask_cached r2);
      send oc "STATS\n";
      let stats = input_line ic in
      check_prefix "stats verb" "STATS " stats;
      Alcotest.(check bool) ("one hit: " ^ stats) true (contains stats " hits=1 ");
      Alcotest.(check bool) ("one miss: " ^ stats) true (contains stats " misses=1 ");
      close ())

(* A cache hit is answered on the connection's reader thread: with the
   only worker busy on a slow solve, a repeated request still comes back
   at once, from the cache, before the slow answer. *)
let test_hit_while_busy () =
  with_server
    { small_config with Server.workers = 1 }
    (fun srv ->
      let ic, oc, close = connect srv in
      let q =
        Solver.request_exn ~budget:(Solver.Nodes 5_000) (chain ~tasks:6 ~types:3 ~machines:3 9)
      in
      send oc (Protocol.render_solve ~id:"q1" q);
      check_prefix "first solve" "OK q1 " (input_line ic);
      send oc (Protocol.render_solve ~id:"slow" (slow_request ()));
      Thread.delay 0.2 (* the only worker is now busy on [slow] *);
      send oc (Protocol.render_solve ~id:"q2" q);
      let answered =
        match Unix.select [ Unix.descr_of_in_channel ic ] [] [] 1.0 with
        | [], _, _ -> false
        | _ -> true
      in
      (* without an answer, still tear [slow] down so the shutdown can
         join the worker *)
      if not answered then send oc "CANCEL slow\n";
      Alcotest.(check bool) "an answer within 1 s" true answered;
      let hit = input_line ic in
      check_prefix "the hit comes first" "OK q2 " hit;
      Alcotest.(check bool) ("answered from the cache: " ^ hit) true (contains hit " cached=1 ");
      send oc "CANCEL slow\n";
      let lines = List.init 2 (fun _ -> input_line ic) in
      Alcotest.(check (list string))
        "slow request torn down"
        [ "CANCELLED slow"; "CANCELOK slow" ]
        (List.sort compare lines);
      close ())

let test_stats_evictions () =
  with_server
    { small_config with Server.cache_capacity = 1 }
    (fun srv ->
      let ic, oc, close = connect srv in
      List.iteri
        (fun i seed ->
          let inst = chain ~tasks:6 ~types:3 ~machines:3 seed in
          let req = Solver.request_exn ~budget:(Solver.Nodes 5_000) inst in
          send oc (Protocol.render_solve ~id:(Printf.sprintf "e%d" i) req);
          check_prefix "solve" "OK " (input_line ic))
        [ 31; 32 ];
      send oc "STATS\n";
      let stats = input_line ic in
      Alcotest.(check bool)
        ("eviction reported: " ^ stats)
        true
        (contains stats " evictions=1 ");
      close ())

(* ------------------------------------------------------------------ *)
(* lifecycle: QUIT drains in-flight work first                          *)
(* ------------------------------------------------------------------ *)

let test_quit_drains () =
  with_server small_config (fun srv ->
      let ic, oc, close = connect srv in
      let mk seed =
        Solver.request_exn ~budget:(Solver.Nodes 10_000)
          (chain ~tasks:7 ~types:3 ~machines:3 seed)
      in
      send oc (Protocol.render_solve ~id:"q1" (mk 41));
      send oc (Protocol.render_solve ~id:"q2" (mk 42));
      send oc "QUIT\n";
      let lines = List.init 3 (fun _ -> input_line ic) in
      let oks = List.filter (fun l -> String.starts_with ~prefix:"OK q" l) lines in
      Alcotest.(check int) "both solves answered" 2 (List.length oks);
      Alcotest.(check string) "BYE is last" "BYE" (List.nth lines 2);
      close ())

let () =
  Alcotest.run "daemon"
    [
      ( "wire",
        [
          Alcotest.test_case "8 concurrent clients, byte-identity" `Quick
            test_concurrent_byte_identity;
          Alcotest.test_case "structured errors keep the daemon up" `Quick
            test_structured_errors;
          Alcotest.test_case "QUIT drains in-flight solves" `Quick test_quit_drains;
        ] );
      ( "cancel",
        [
          Alcotest.test_case "mid-solve teardown" `Quick test_cancel_midsolve;
          Alcotest.test_case "queued request" `Quick test_cancel_queued;
          Alcotest.test_case "duplicate active id" `Quick test_duplicate_id;
        ] );
      ( "stats",
        [
          Alcotest.test_case "cache hit/miss over the wire" `Quick test_stats_cache;
          Alcotest.test_case "hit answered while the worker is busy" `Quick test_hit_while_busy;
          Alcotest.test_case "evictions reported" `Quick test_stats_evictions;
        ] );
    ]
