(* Tests for mf_eval: the incremental evaluation state shared by the
   heuristics, the exact search and the bench.  The core contract - try_*
   equals a from-scratch Period.period, apply_* commits what try_*
   predicted, undo of an assignment and load_mapping restore bit-for-bit -
   is exercised over random in-forests and long random move sequences. *)

module Instance = Mf_core.Instance
module Workflow = Mf_core.Workflow
module Mapping = Mf_core.Mapping
module Period = Mf_core.Period
module Rat = Mf_numeric.Rat
module State = Mf_eval.State
module Gen = Mf_workload.Gen
module Rng = Mf_prng.Rng

let chain_instance ?(seed = 1) ~n ~p ~m () =
  Gen.chain (Rng.create seed) (Gen.default ~tasks:n ~types:p ~machines:m)

let tree_instance ?(seed = 1) ~n ~p ~m () =
  Gen.in_tree (Rng.create seed) (Gen.default ~tasks:n ~types:p ~machines:m)

let full_period inst a = Period.period inst (Mapping.of_array inst a)

(* Relative closeness, matching the State.check convention. *)
let close ?(tol = 1e-9) a b = Float.abs (a -. b) <= tol *. Float.max 1.0 (Float.abs b)

(* A deterministic valid starting allocation (machine = task type works for
   any instance with m >= p and is even specialized). *)
let typed_start inst =
  let wf = Instance.workflow inst in
  Array.init (Instance.task_count inst) (fun i -> Workflow.ttype wf i)

let random_start rng inst =
  Array.init (Instance.task_count inst) (fun _ -> Rng.int rng (Instance.machines inst))

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

let test_of_mapping_bit_identical () =
  List.iter
    (fun (seed, n, p, m) ->
      let inst = chain_instance ~seed ~n ~p ~m () in
      let mp = Mapping.of_array inst (typed_start inst) in
      let st = State.of_mapping inst mp in
      Alcotest.(check bool)
        (Printf.sprintf "period bit-identical (n=%d m=%d)" n m)
        true
        (State.period st = Period.period inst mp))
    [ (1, 5, 2, 3); (2, 12, 3, 5); (3, 30, 5, 12); (4, 60, 5, 20) ]

(* [load_mapping] into a state with a history must give exactly the
   state [of_mapping] builds fresh.  Half the instances have
   machine-independent failures, where every move has ratio 1 and skips
   its upstream walk; the history mixes moves, swaps and reloads, and
   ends on journalled assignments with extra costs. *)
let test_load_mapping_after_history () =
  let bits = Int64.bits_of_float and hex = Printf.sprintf "%h" in
  for case = 0 to 47 do
    let rng = Rng.create (100 + case) in
    let n = 2 + Rng.int rng 20 in
    let p = 1 + Rng.int rng (min 3 n) in
    let m = max p 2 + Rng.int rng 5 in
    let params =
      { (Gen.default ~tasks:n ~types:p ~machines:m) with
        Gen.task_attached_failures = case mod 2 = 0 }
    in
    let inst =
      if case mod 4 < 2 then Gen.in_tree (Rng.create case) params
      else Gen.chain (Rng.create case) params
    in
    let st = State.of_mapping inst (Mapping.of_array inst (random_start rng inst)) in
    for _ = 1 to 30 do
      match Rng.int rng 3 with
      | 0 ->
        let i = Rng.int rng n and u = Rng.int rng m in
        if u <> State.machine_of st i then State.apply_move st ~task:i ~machine:u
      | 1 ->
        let u = Rng.int rng m and v = Rng.int rng m in
        if u <> v then State.apply_swap st ~u ~v
      | _ -> State.load_mapping st (Mapping.of_array inst (random_start rng inst))
    done;
    State.reset st;
    let order = Workflow.backward_order (Instance.workflow inst) in
    for k = 0 to Rng.int rng n - 1 do
      let extra = float_of_int (Rng.int rng 3) in
      State.assign_task_with st ~extra ~task:order.(k) ~machine:(Rng.int rng m)
    done;
    let mp = Mapping.of_array inst (random_start rng inst) in
    State.load_mapping st mp;
    let fresh = State.of_mapping inst mp in
    let what s = Printf.sprintf "case %d (n=%d m=%d): %s" case n m s in
    Alcotest.(check int) (what "journal empty") 0 (State.undo_depth st);
    Alcotest.(check (array int)) (what "allocation") (State.to_array fresh) (State.to_array st);
    for i = 0 to n - 1 do
      let got = State.x st i and expect = State.x fresh i in
      if bits got <> bits expect then
        Alcotest.failf "%s" (what (Printf.sprintf "x(%d) %h vs fresh %h" i got expect))
    done;
    for u = 0 to m - 1 do
      Alcotest.(check string) (what (Printf.sprintf "load(%d)" u))
        (hex (State.machine_load fresh u)) (hex (State.machine_load st u));
      Alcotest.(check int) (what "tasks_on") (State.tasks_on fresh u) (State.tasks_on st u)
    done;
    Alcotest.(check string) (what "total load") (hex (State.total_load fresh))
      (hex (State.total_load st));
    Alcotest.(check string) (what "period") (hex (State.period fresh)) (hex (State.period st));
    for i = 0 to n - 1 do
      for u = 0 to m - 1 do
        let got = State.try_move st ~task:i ~machine:u in
        let expect = State.try_move fresh ~task:i ~machine:u in
        if bits got <> bits expect then
          Alcotest.failf "%s"
            (what (Printf.sprintf "try_move(%d,%d) %h vs fresh %h" i u got expect))
      done
    done;
    State.check st
  done

let test_read_access () =
  let inst = chain_instance ~n:8 ~p:3 ~m:4 () in
  let a = typed_start inst in
  let st = State.of_mapping inst (Mapping.of_array inst a) in
  Alcotest.(check bool) "complete" true (State.is_complete st);
  Alcotest.(check (array int)) "to_array" a (State.to_array st);
  Alcotest.(check (array int)) "mapping roundtrip" a (Mapping.to_array (State.mapping st));
  Array.iteri
    (fun i u -> Alcotest.(check int) "machine_of" u (State.machine_of st i))
    a;
  let wf = Instance.workflow inst in
  for u = 0 to 3 do
    let count = Array.fold_left (fun acc v -> if v = u then acc + 1 else acc) 0 a in
    Alcotest.(check int) "tasks_on" count (State.tasks_on st u);
    for ty = 0 to 2 do
      let expect =
        Array.exists (fun i -> a.(i) = u && Workflow.ttype wf i = ty)
          (Array.init 8 Fun.id)
      in
      Alcotest.(check bool) "hosts_type" expect (State.hosts_type st ~machine:u ~ty)
    done
  done;
  State.check st

(* move_allowed must agree with the O(n) definition: every other task on
   the target machine shares the task's type. *)
let test_move_allowed_matches_scan () =
  let rng = Rng.create 42 in
  for seed = 1 to 10 do
    let inst = tree_instance ~seed ~n:12 ~p:3 ~m:5 () in
    let wf = Instance.workflow inst in
    let a = random_start rng inst in
    let st = State.of_mapping inst (Mapping.of_array inst a) in
    for i = 0 to 11 do
      for u = 0 to 4 do
        let scan =
          Array.for_all Fun.id
            (Array.mapi
               (fun j uj ->
                 j = i || uj <> u || Workflow.ttype wf j = Workflow.ttype wf i)
               a)
        in
        Alcotest.(check bool)
          (Printf.sprintf "move_allowed(%d,%d)" i u)
          scan
          (State.move_allowed st ~task:i ~machine:u)
      done
    done
  done

(* ------------------------------------------------------------------ *)
(* try_move / try_swap vs full recomputation                           *)
(* ------------------------------------------------------------------ *)

let test_try_move_matches_full () =
  let inst = tree_instance ~seed:7 ~n:15 ~p:4 ~m:6 () in
  let a = typed_start inst in
  let st = State.of_mapping inst (Mapping.of_array inst a) in
  let p0 = State.period st in
  for i = 0 to 14 do
    for u = 0 to 5 do
      if u <> a.(i) then begin
        let b = Array.copy a in
        b.(i) <- u;
        let expect = full_period inst b in
        let got = State.try_move st ~task:i ~machine:u in
        if not (close got expect) then
          Alcotest.failf "try_move(%d,%d) = %.17g, full recompute %.17g" i u got expect
      end
    done
  done;
  (* try_move must leave the state untouched. *)
  Alcotest.(check (array int)) "allocation untouched" a (State.to_array st);
  Alcotest.(check bool) "period untouched" true (State.period st = p0);
  State.check st

let test_try_swap_matches_full () =
  let inst = chain_instance ~seed:9 ~n:15 ~p:3 ~m:6 () in
  let a = typed_start inst in
  let st = State.of_mapping inst (Mapping.of_array inst a) in
  for u = 0 to 5 do
    for v = u + 1 to 5 do
      let b =
        Array.map (fun w -> if w = u then v else if w = v then u else w) a
      in
      let expect = full_period inst b in
      let got = State.try_swap st ~u ~v in
      if not (close got expect) then
        Alcotest.failf "try_swap(%d,%d) = %.17g, full recompute %.17g" u v got expect
    done
  done;
  Alcotest.(check (array int)) "allocation untouched" a (State.to_array st);
  State.check st

(* try_move and try_swap write only preallocated scratch: each call
   allocates at most the box of its float result; apply_move and
   apply_swap commit that scratch in place.  A compensated add, an
   upstream walk or a commit record that boxes again shows up as tens of
   words per call.  Native code only: bytecode boxes every float. *)
let test_moves_allocation_guard () =
  match Sys.backend_type with
  | Sys.Bytecode | Sys.Other _ -> Alcotest.skip ()
  | Sys.Native ->
    (* The BENCH_dynamic chain: 56 tasks, 8 machines, [i mod 8]. *)
    let n = 56 and m = 8 in
    let inst =
      Instance.create
        ~workflow:(Workflow.chain ~types:(Array.make n 0))
        ~machines:m ~w:(Array.make_matrix n m 100.0) ~f:(Array.make_matrix n m 0.0)
    in
    let st = State.of_mapping inst (Mapping.of_array inst (Array.init n (fun i -> i mod m))) in
    let per_call calls f =
      let before = Gc.minor_words () in
      f ();
      (Gc.minor_words () -. before) /. float_of_int calls
    in
    let moves =
      per_call (n * m) (fun () ->
          for i = 0 to n - 1 do
            for u = 0 to m - 1 do
              ignore (State.try_move st ~task:i ~machine:u)
            done
          done)
    in
    let swaps =
      per_call (m * (m - 1) / 2) (fun () ->
          for u = 0 to m - 1 do
            for v = u + 1 to m - 1 do
              ignore (State.try_swap st ~u ~v)
            done
          done)
    in
    (* Swaps first: they keep the balanced mapping balanced, which the
       moves below pile onto the last machine. *)
    let applied_swaps =
      per_call (m * (m - 1) / 2) (fun () ->
          for u = 0 to m - 1 do
            for v = u + 1 to m - 1 do
              State.apply_swap st ~u ~v
            done
          done)
    in
    let applied_moves =
      per_call (n * m) (fun () ->
          for i = 0 to n - 1 do
            for u = 0 to m - 1 do
              State.apply_move st ~task:i ~machine:u
            done
          done)
    in
    List.iter
      (fun (what, words) ->
        Alcotest.(check bool)
          (Printf.sprintf "%s: %.1f minor words per call <= 4" what words)
          true (words <= 4.0))
      [
        ("try_move", moves);
        ("try_swap", swaps);
        ("apply_move", applied_moves);
        ("apply_swap", applied_swaps);
      ]

(* ------------------------------------------------------------------ *)
(* apply / reload                                                      *)
(* ------------------------------------------------------------------ *)

let snapshot st m n =
  ( State.to_array st,
    Array.init n (fun i -> State.x st i),
    Array.init m (fun u -> State.machine_load st u),
    State.period st )

let check_restored st (a, xs, loads, p) =
  let bits = Int64.bits_of_float in
  Alcotest.(check (array int)) "allocation restored" a (State.to_array st);
  Array.iteri
    (fun i xi ->
      let got = State.x st i in
      if bits got <> bits xi then Alcotest.failf "x(%d) not restored: %h vs %h" i got xi)
    xs;
  Array.iteri
    (fun u lu ->
      let got = State.machine_load st u in
      if bits got <> bits lu then Alcotest.failf "load(%d) not restored: %h vs %h" u got lu)
    loads;
  Alcotest.(check bool) "period restored" true (bits (State.period st) = bits p)

(* Moves and swaps commit in place: nothing is journalled, so undo has
   nothing to revert, and the start comes back by reloading it. *)
let test_apply_undo_roundtrip () =
  let inst = tree_instance ~seed:11 ~n:20 ~p:4 ~m:7 () in
  let rng = Rng.create 5 in
  let start = Mapping.of_array inst (typed_start inst) in
  let st = State.of_mapping inst start in
  let before = snapshot st 7 20 in
  for _ = 1 to 50 do
    if Rng.bool rng then begin
      let i = Rng.int rng 20 and u = Rng.int rng 7 in
      if u <> State.machine_of st i then State.apply_move st ~task:i ~machine:u
    end
    else begin
      let u = Rng.int rng 7 and v = Rng.int rng 7 in
      if u <> v then State.apply_swap st ~u ~v
    end
  done;
  State.check st;
  Alcotest.(check int) "journal empty" 0 (State.undo_depth st);
  Alcotest.check_raises "undo after moves" (Invalid_argument "State.undo: empty journal")
    (fun () -> State.undo st);
  State.load_mapping st start;
  check_restored st before;
  State.check st

(* ------------------------------------------------------------------ *)
(* Backward-order assignment (partial states)                          *)
(* ------------------------------------------------------------------ *)

let test_assign_backward_build () =
  let inst = tree_instance ~seed:13 ~n:14 ~p:3 ~m:5 () in
  let rng = Rng.create 17 in
  let st = State.create inst in
  Alcotest.(check bool) "empty period" true (State.period st = 0.0);
  let order = Workflow.backward_order (Instance.workflow inst) in
  Array.iter
    (fun task ->
      let u = Rng.int rng 5 in
      let predicted = State.try_assign_with st ~extra:0.0 ~task ~machine:u in
      State.assign_task_with st ~extra:0.0 ~task ~machine:u;
      Alcotest.(check bool)
        (Printf.sprintf "try_assign_with predicts load (task %d)" task)
        true
        (close (State.machine_load st u) predicted);
      State.check st)
    order;
  Alcotest.(check bool) "complete" true (State.is_complete st);
  let expect = full_period inst (State.to_array st) in
  Alcotest.(check bool) "final period" true (close (State.period st) expect);
  (* Unwind the whole build through the journal. *)
  for _ = 1 to 14 do
    State.undo st
  done;
  Alcotest.(check bool) "empty again" true
    (Array.for_all (fun u -> u < 0) (State.to_array st));
  Alcotest.(check bool) "zero loads" true
    (Array.for_all (fun u -> State.machine_load st u = 0.0) (Array.init 5 Fun.id));
  State.check st

let test_assign_extra_cost () =
  let inst = chain_instance ~n:4 ~p:2 ~m:3 () in
  let st = State.create inst in
  let order = Workflow.backward_order (Instance.workflow inst) in
  let base = State.try_assign_with st ~extra:0.0 ~task:order.(0) ~machine:1 in
  let with_extra = State.try_assign_with st ~extra:25.0 ~task:order.(0) ~machine:1 in
  Alcotest.(check (float 1e-9)) "try_assign_with extra" (base +. 25.0) with_extra;
  State.assign_task_with st ~extra:25.0 ~task:order.(0) ~machine:1;
  Alcotest.(check bool) "load includes extra" true
    (close (State.machine_load st 1) with_extra);
  State.check st;
  State.undo st;
  Alcotest.(check bool) "extra undone" true (State.machine_load st 1 = 0.0);
  State.check st

let test_errors () =
  let inst = chain_instance ~n:4 ~p:2 ~m:3 () in
  let st = State.create inst in
  Alcotest.check_raises "task range" (Invalid_argument "State: task out of range")
    (fun () -> ignore (State.machine_of st 4));
  Alcotest.check_raises "machine range" (Invalid_argument "State: machine out of range")
    (fun () -> ignore (State.machine_load st 3));
  Alcotest.check_raises "successor unassigned"
    (Invalid_argument "State: successor not yet assigned") (fun () ->
      ignore (State.x_candidate st ~task:0 ~machine:0));
  Alcotest.check_raises "move unassigned" (Invalid_argument "State: task not assigned")
    (fun () -> ignore (State.try_move st ~task:0 ~machine:0));
  Alcotest.check_raises "empty undo" (Invalid_argument "State.undo: empty journal")
    (fun () -> State.undo st);
  Alcotest.check_raises "incomplete mapping"
    (Invalid_argument "State.mapping: incomplete assignment") (fun () ->
      ignore (State.mapping st));
  let order = Workflow.backward_order (Instance.workflow inst) in
  State.assign_task_with st ~extra:0.0 ~task:order.(0) ~machine:0;
  Alcotest.check_raises "double assign"
    (Invalid_argument "State.assign_task_with: task already assigned") (fun () ->
      State.assign_task_with st ~extra:0.0 ~task:order.(0) ~machine:1);
  (* A commit would leave the journalled load snapshots stale. *)
  State.assign_task_with st ~extra:0.0 ~task:order.(1) ~machine:1;
  Alcotest.check_raises "move while journalled"
    (Invalid_argument "State.apply_move: assignments are journalled") (fun () ->
      State.apply_move st ~task:order.(0) ~machine:2);
  Alcotest.check_raises "swap while journalled"
    (Invalid_argument "State.apply_swap: assignments are journalled") (fun () ->
      State.apply_swap st ~u:0 ~v:1);
  Alcotest.(check int) "refused commits leave the journal" 2 (State.undo_depth st);
  State.check st

(* ------------------------------------------------------------------ *)
(* Properties: random move sequences on random in-forests              *)
(* ------------------------------------------------------------------ *)

let arb_setup =
  QCheck.make
    ~print:(fun (seed, tree, n, p, m) ->
      Printf.sprintf "seed=%d tree=%b n=%d p=%d m=%d" seed tree n p m)
    QCheck.Gen.(
      let* seed = int_range 0 100000 in
      let* tree = bool in
      let* n = int_range 2 25 in
      let* p = int_range 1 (min n 5) in
      let* m = int_range (max 2 p) 10 in
      return (seed, tree, n, p, m))

let make (seed, tree, n, p, m) =
  if tree then tree_instance ~seed ~n ~p ~m () else chain_instance ~seed ~n ~p ~m ()

(* Each case runs one random move/swap sequence, cross-checking the
   incremental period against a full recomputation at every step and
   against the exact rational period at the end.  With ~count 1000 this is
   the headline "1000 random move sequences" acceptance check. *)
let prop_sequence_matches_full =
  QCheck.Test.make ~name:"eval: move sequences match Period.period and period_exact"
    ~count:1000 arb_setup (fun ((seed, _, n, _, m) as setup) ->
      let inst = make setup in
      let rng = Rng.create (seed + 1) in
      let a = random_start rng inst in
      let st = State.of_mapping inst (Mapping.of_array inst a) in
      let ok = ref (State.period st = full_period inst a) in
      for _ = 1 to 12 do
        if !ok then begin
          if Rng.bool rng then begin
            let i = Rng.int rng n and u = Rng.int rng m in
            if u <> a.(i) then begin
              let b = Array.copy a in
              b.(i) <- u;
              let expect = full_period inst b in
              if not (close (State.try_move st ~task:i ~machine:u) expect) then
                ok := false
              else begin
                State.apply_move st ~task:i ~machine:u;
                a.(i) <- u
              end
            end
          end
          else begin
            let u = Rng.int rng m and v = Rng.int rng m in
            if u <> v then begin
              let b =
                Array.map (fun w -> if w = u then v else if w = v then u else w) a
              in
              let expect = full_period inst b in
              if not (close (State.try_swap st ~u ~v) expect) then ok := false
              else begin
                State.apply_swap st ~u ~v;
                Array.blit b 0 a 0 n
              end
            end
          end;
          if !ok then ok := close (State.period st) (full_period inst a)
        end
      done;
      if !ok then begin
        State.check st;
        let exact = Rat.to_float (Period.period_exact inst (Mapping.of_array inst a)) in
        ok := close ~tol:1e-6 (State.period st) exact
      end;
      !ok)

(* Undoing assignments back to a recorded depth restores the state
   bit-for-bit - the journal snapshots exact Kahan accumulators, extra
   costs included, not recomputed values. *)
let prop_undo_bit_exact =
  QCheck.Test.make ~name:"eval: undo restores loads and period bit-for-bit" ~count:300
    arb_setup (fun ((seed, _, n, _, m) as setup) ->
      let inst = make setup in
      let rng = Rng.create (seed + 2) in
      let order = Workflow.backward_order (Instance.workflow inst) in
      let st = State.create inst in
      let assign k =
        let extra = if Rng.bool rng then 0.0 else Rng.float rng 50.0 in
        State.assign_task_with st ~extra ~task:order.(k) ~machine:(Rng.int rng m)
      in
      let d0 = Rng.int rng n in
      for k = 0 to d0 - 1 do
        assign k
      done;
      let bits = Int64.bits_of_float in
      let snap () =
        ( State.to_array st,
          Array.init m (fun u -> bits (State.machine_load st u)),
          bits (State.total_load st),
          bits (State.period st) )
      in
      let before = snap () in
      for k = d0 to d0 + Rng.int rng (n - d0) do
        assign k
      done;
      while State.undo_depth st > d0 do
        State.undo st
      done;
      State.check st;
      snap () = before)

let () =
  Alcotest.run "mf_eval"
    [
      ( "state",
        [
          Alcotest.test_case "of_mapping bit-identical" `Quick test_of_mapping_bit_identical;
          Alcotest.test_case "read access" `Quick test_read_access;
          Alcotest.test_case "move_allowed" `Quick test_move_allowed_matches_scan;
          Alcotest.test_case "errors" `Quick test_errors;
          Alcotest.test_case "load_mapping after history" `Quick test_load_mapping_after_history;
        ] );
      ( "moves",
        [
          Alcotest.test_case "try_move vs full" `Quick test_try_move_matches_full;
          Alcotest.test_case "try_swap vs full" `Quick test_try_swap_matches_full;
          Alcotest.test_case "apply/undo roundtrip" `Quick test_apply_undo_roundtrip;
          Alcotest.test_case "allocation guard" `Quick test_moves_allocation_guard;
        ] );
      ( "assign",
        [
          Alcotest.test_case "backward build" `Quick test_assign_backward_build;
          Alcotest.test_case "extra cost" `Quick test_assign_extra_cost;
        ] );
      ( "props",
        List.map QCheck_alcotest.to_alcotest
          [ prop_sequence_matches_full; prop_undo_bit_exact ] );
    ]
