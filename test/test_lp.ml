(* Tests for mf_lp: the float and exact-rational simplex on standard-form
   LPs, the splitting LP, the LU and sparse kernels, and the paper's MIP
   (9) (Micro_mip) validated against brute force and the exact search. *)

module Mip = Mf_lp.Mip
module Micro_mip = Mf_lp.Micro_mip
module Simplex = Mf_lp.Simplex
module Sparse_f = Mf_lp.Sparse.Float_csc
module Instance = Mf_core.Instance
module Mapping = Mf_core.Mapping
module Period = Mf_core.Period
module Gen = Mf_workload.Gen
module Rng = Mf_prng.Rng

(* ------------------------------------------------------------------ *)
(* LP relaxation on known problems                                     *)
(* ------------------------------------------------------------------ *)

(* [solve_dense a b c] minimizes [c'v] subject to [a v = b], [v >= 0]
   with the float simplex; each case writes its slack, surplus and bound
   columns itself, and a maximization as the minimization of [-c'v]. *)
let solve_dense a b c =
  let module FS = Simplex.Float_solver in
  (FS.solve_sparse_detailed ~a:(Sparse_f.of_dense a ~cols:(Array.length c)) ~b ~c ()).FS.outcome

(* max 3x + 2y s.t. x + y <= 4, x + 3y <= 6 -> optimum (4,0), value 12.
   Columns x, y and the two slacks. *)
let test_lp_textbook_max () =
  match
    solve_dense
      [| [| 1.0; 1.0; 1.0; 0.0 |]; [| 1.0; 3.0; 0.0; 1.0 |] |]
      [| 4.0; 6.0 |] [| -3.0; -2.0; 0.0; 0.0 |]
  with
  | Simplex.Float_solver.Optimal (v, obj) ->
    Alcotest.(check (float 1e-7)) "objective" 12.0 (-.obj);
    Alcotest.(check (float 1e-7)) "x" 4.0 v.(0);
    Alcotest.(check (float 1e-7)) "y" 0.0 v.(1)
  | _ -> Alcotest.fail "expected optimal"

(* min x + y s.t. x + 2y >= 3, 3x + y >= 4 -> intersection (1,1), value 2.
   Columns x, y and the two surpluses. *)
let test_lp_textbook_min () =
  match
    solve_dense
      [| [| 1.0; 2.0; -1.0; 0.0 |]; [| 3.0; 1.0; 0.0; -1.0 |] |]
      [| 3.0; 4.0 |] [| 1.0; 1.0; 0.0; 0.0 |]
  with
  | Simplex.Float_solver.Optimal (v, obj) ->
    Alcotest.(check (float 1e-7)) "objective" 2.0 obj;
    Alcotest.(check (float 1e-7)) "x" 1.0 v.(0);
    Alcotest.(check (float 1e-7)) "y" 1.0 v.(1)
  | _ -> Alcotest.fail "expected optimal"

let test_lp_equality_and_bounds () =
  (* min -x with x + y = 2, x in [0, 1.5], y >= 0 -> x = 1.5.  Columns x,
     y and the slack of the bound row x + s = 1.5. *)
  match
    solve_dense [| [| 1.0; 1.0; 0.0 |]; [| 1.0; 0.0; 1.0 |] |] [| 2.0; 1.5 |] [| -1.0; 0.0; 0.0 |]
  with
  | Simplex.Float_solver.Optimal (v, obj) ->
    Alcotest.(check (float 1e-7)) "x at bound" 1.5 v.(0);
    Alcotest.(check (float 1e-7)) "obj" (-1.5) obj
  | _ -> Alcotest.fail "expected optimal"

let test_lp_free_variable () =
  (* min x with x free, x >= -7 via constraint -> -7.  The free x is split
     into x+ - x-; the third column is the surplus. *)
  match solve_dense [| [| 1.0; -1.0; -1.0 |] |] [| -7.0 |] [| 1.0; -1.0; 0.0 |] with
  | Simplex.Float_solver.Optimal (v, obj) ->
    Alcotest.(check (float 1e-7)) "x" (-7.0) (v.(0) -. v.(1));
    Alcotest.(check (float 1e-7)) "obj" (-7.0) obj
  | _ -> Alcotest.fail "expected optimal"

let test_lp_infeasible () =
  (* x <= 1 and x >= 2: columns x, the slack, the surplus. *)
  match
    solve_dense [| [| 1.0; 1.0; 0.0 |]; [| 1.0; 0.0; -1.0 |] |] [| 1.0; 2.0 |] [| 1.0; 0.0; 0.0 |]
  with
  | Simplex.Float_solver.Infeasible -> ()
  | _ -> Alcotest.fail "expected infeasible"

let test_lp_unbounded () =
  (* max x over x >= 0 alone: no rows at all. *)
  match solve_dense [||] [||] [| -1.0 |] with
  | Simplex.Float_solver.Unbounded -> ()
  | _ -> Alcotest.fail "expected unbounded"

let test_lp_degenerate () =
  (* Degenerate vertex: three constraints meet at (0,0); Bland's rule must
     still terminate.  max x + y s.t. x + y >= 0, x - y >= 0, x + 2y <= 4;
     columns x, y, two surpluses and a slack. *)
  match
    solve_dense
      [|
        [| 1.0; 1.0; -1.0; 0.0; 0.0 |];
        [| 1.0; -1.0; 0.0; -1.0; 0.0 |];
        [| 1.0; 2.0; 0.0; 0.0; 1.0 |];
      |]
      [| 0.0; 0.0; 4.0 |] [| -1.0; -1.0; 0.0; 0.0; 0.0 |]
  with
  | Simplex.Float_solver.Optimal (_, obj) -> Alcotest.(check (float 1e-7)) "objective" 4.0 (-.obj)
  | _ -> Alcotest.fail "expected optimal"

(* ------------------------------------------------------------------ *)
(* Exact rational simplex agreement                                    *)
(* ------------------------------------------------------------------ *)

(* A random LP over [nvars] variables with upper bounds in [1, 10] and
   [ncons] rows, each <= or >= at random, to minimize or maximize at
   random, in standard form: the variables, a slack per bound row (the
   first [nvars] rows), then a slack or surplus per constraint row. *)
let random_lp rng ~nvars ~ncons =
  let cols = (2 * nvars) + ncons in
  let hi = Array.init nvars (fun _ -> Rng.uniform rng ~lo:1.0 ~hi:10.0) in
  let bound_rows =
    Array.init nvars (fun v ->
        Array.init cols (fun j -> if j = v || j = nvars + v then 1.0 else 0.0))
  in
  let rows =
    Array.init ncons (fun r ->
        let row = Array.make cols 0.0 in
        for v = 0 to nvars - 1 do
          row.(v) <- Rng.uniform rng ~lo:(-3.0) ~hi:3.0
        done;
        row.((2 * nvars) + r) <- (if Rng.bool rng then 1.0 else -1.0);
        (row, Rng.uniform rng ~lo:(-5.0) ~hi:10.0))
  in
  let obj = Array.init nvars (fun _ -> Rng.uniform rng ~lo:(-2.0) ~hi:2.0) in
  let sign = if Rng.bool rng then 1.0 else -1.0 in
  let c = Array.init cols (fun j -> if j < nvars then sign *. obj.(j) else 0.0) in
  ( Sparse_f.of_dense (Array.append bound_rows (Array.map fst rows)) ~cols,
    Array.append hi (Array.map snd rows),
    c )

let test_float_vs_exact_simplex () =
  let module FS = Simplex.Float_solver in
  let module RS = Simplex.Rat_solver in
  let rng = Rng.create 77 in
  let agree = ref 0 in
  for _ = 1 to 25 do
    let a, b, c = random_lp rng ~nvars:4 ~ncons:4 in
    match
      ((FS.solve_sparse_detailed ~a ~b ~c ()).FS.outcome, (Mip.certify ~a ~b ~c ()).RS.outcome)
    with
    | FS.Optimal (_, f), RS.Optimal (_, e) ->
      let e = Mf_numeric.Rat.to_float e in
      Alcotest.(check bool)
        (Printf.sprintf "objectives agree (%g vs %g)" f e)
        true
        (Float.abs (f -. e) <= 1e-6 *. Float.max 1.0 (Float.abs e));
      incr agree
    | FS.Infeasible, RS.Infeasible | FS.Unbounded, RS.Unbounded -> incr agree
    | _ -> Alcotest.fail "float and exact simplex disagree on status"
  done;
  Alcotest.(check int) "all cases checked" 25 !agree

(* ------------------------------------------------------------------ *)
(* Micro MIP vs brute force - the validation that matters              *)
(* ------------------------------------------------------------------ *)

let test_micro_mip_matches_brute () =
  for seed = 1 to 8 do
    let inst = Gen.chain (Rng.create seed) (Gen.default ~tasks:4 ~types:2 ~machines:3) in
    let _, expected = Mf_exact.Brute.specialized inst in
    let r = Micro_mip.solve inst in
    Alcotest.(check bool)
      (Printf.sprintf "solved (seed %d)" seed)
      true
      (r.Micro_mip.status = Micro_mip.Optimal);
    (match (r.Micro_mip.mapping, r.Micro_mip.period) with
    | Some mp, Some period ->
      Alcotest.(check bool) "specialized" true (Mapping.satisfies inst mp Mapping.Specialized);
      Alcotest.(check bool)
        (Printf.sprintf "period %.3f matches brute %.3f (seed %d)" period expected seed)
        true
        (Float.abs (period -. expected) <= 1e-4 *. expected)
    | _ -> Alcotest.fail "no mapping decoded")
  done

let test_micro_mip_k_close_to_period () =
  let inst = Gen.chain (Rng.create 3) (Gen.default ~tasks:4 ~types:2 ~machines:3) in
  let r = Micro_mip.solve inst in
  match (r.Micro_mip.k, r.Micro_mip.period) with
  | Some k, Some period ->
    Alcotest.(check bool)
      (Printf.sprintf "K=%.4f vs recomputed period=%.4f" k period)
      true
      (Float.abs (k -. period) <= 1e-4 *. period)
  | _ -> Alcotest.fail "expected K and period"

let test_micro_mip_on_tree () =
  let inst = Gen.in_tree (Rng.create 5) (Gen.default ~tasks:4 ~types:2 ~machines:3) in
  let _, expected = Mf_exact.Brute.specialized inst in
  let r = Micro_mip.solve inst in
  match r.Micro_mip.period with
  | Some period ->
    Alcotest.(check bool)
      (Printf.sprintf "tree period %.3f vs %.3f" period expected)
      true
      (Float.abs (period -. expected) <= 1e-4 *. expected)
  | None -> Alcotest.fail "expected a solution"

(* Chains and in-trees, n in {4, 5, 6}: the MIP's optimum is the period
   both exact solvers prove, and its K is that period up to the LP's
   tolerances. *)
let test_micro_mip_agrees_with_dfs_and_brute () =
  List.iter
    (fun (family, draw) ->
      List.iter
        (fun (n, seeds) ->
          for seed = 1 to seeds do
            let inst = draw (Rng.create seed) (Gen.default ~tasks:n ~types:2 ~machines:3) in
            let case = Printf.sprintf "%s n=%d seed %d" family n seed in
            let _, brute = Mf_exact.Brute.specialized inst in
            let dfs = (Mf_exact.Dfs.specialized inst).Mf_exact.Dfs.period in
            let r = Micro_mip.solve inst in
            Alcotest.(check bool) (case ^ ": optimal") true (r.Micro_mip.status = Micro_mip.Optimal);
            match (r.Micro_mip.mapping, r.Micro_mip.period, r.Micro_mip.k) with
            | Some mp, Some period, Some k ->
              Alcotest.(check bool)
                (case ^ ": specialized")
                true
                (Mapping.satisfies inst mp Mapping.Specialized);
              List.iter
                (fun (name, want) ->
                  Alcotest.(check bool)
                    (Printf.sprintf "%s: period %.17g = %s %.17g" case period name want)
                    true
                    (Float.abs (period -. want) <= 1e-9 *. want))
                [ ("Brute", brute); ("Dfs", dfs) ];
              Alcotest.(check bool)
                (Printf.sprintf "%s: K %.6f within 1e-4 of the period" case k)
                true
                (Float.abs (k -. period) <= 1e-4 *. period)
            | _ -> Alcotest.failf "%s: no mapping decoded" case
          done)
        [ (4, 8); (5, 8); (6, 8) ])
    [ ("chain", Gen.chain); ("in-tree", Gen.in_tree) ]

let test_micro_mip_node_budget () =
  let inst = Gen.chain (Rng.create 1) (Gen.default ~tasks:6 ~types:2 ~machines:3) in
  let r = Micro_mip.solve ~node_budget:3 inst in
  Alcotest.(check bool) "at most 3 node LPs" true (r.Micro_mip.nodes <= 3);
  match (r.Micro_mip.status, r.Micro_mip.mapping) with
  | Micro_mip.Feasible, Some mp ->
    Alcotest.(check bool) "specialized" true (Mapping.satisfies inst mp Mapping.Specialized)
  | Micro_mip.Unknown, None -> ()
  | _ -> Alcotest.fail "expected Feasible with a mapping, or Unknown"

let test_micro_mip_fewer_machines_than_types () =
  let inst = Gen.chain (Rng.create 2) (Gen.default ~tasks:4 ~types:3 ~machines:2) in
  let r = Micro_mip.solve inst in
  Alcotest.(check bool) "infeasible" true (r.Micro_mip.status = Micro_mip.Infeasible);
  Alcotest.(check bool) "no mapping" true (r.Micro_mip.mapping = None)

(* The counts micro_mip.mli states: n + 2m + 5 na rows, and 2 na + m p +
   n + 1 structural columns plus a slack per row past the first n. *)
let test_micro_mip_layout () =
  let n = 3 and m = 2 and p = 2 in
  let inst = Gen.chain (Rng.create 1) (Gen.default ~tasks:n ~types:p ~machines:m) in
  let check name forbidden na =
    let lp = Micro_mip.build ?forbidden inst in
    let rows = n + (2 * m) + (5 * na) in
    Alcotest.(check int) (name ^ ": rows") rows lp.Mf_lp.Splitting.a.Mf_lp.Sparse.rows;
    Alcotest.(check int)
      (name ^ ": columns")
      ((2 * na) + (m * p) + n + 1 + (rows - n))
      lp.Mf_lp.Splitting.a.Mf_lp.Sparse.cols;
    Alcotest.(check int) (name ^ ": b") rows (Array.length lp.Mf_lp.Splitting.b);
    Alcotest.(check (float 0.0)) (name ^ ": c on K") 1.0 lp.Mf_lp.Splitting.c.((2 * na) + (m * p) + n)
  in
  check "all pairs" None (n * m);
  (* task 1 kept on machine 0 only: its pair on machine 1 leaves *)
  check "one pair forbidden" (Some (Array.init (n * m) (fun q -> q = (1 * m) + 1))) ((n * m) - 1)

(* ------------------------------------------------------------------ *)
(* Splitting extension (future work)                                   *)
(* ------------------------------------------------------------------ *)

module Splitting = Mf_lp.Splitting

(* Unwrap the typed result; a failure is a test failure with the typed
   diagnostic (the untyped [solve_exn] escape hatch no longer exists). *)
let splitting_solve inst =
  match Splitting.solve inst with
  | Ok r -> r
  | Error e -> Alcotest.failf "Splitting.solve failed: %s" (Splitting.describe_error e)

let test_splitting_lower_bound () =
  for seed = 1 to 8 do
    let inst = Gen.chain (Rng.create seed) (Gen.default ~tasks:5 ~types:2 ~machines:3) in
    let r = splitting_solve inst in
    let _, opt = Mf_exact.Brute.specialized inst in
    Alcotest.(check bool)
      (Printf.sprintf "LP %.2f <= exact %.2f (seed %d)" r.Splitting.period opt seed)
      true
      (r.Splitting.period <= opt +. (1e-6 *. opt))
  done

let test_splitting_single_machine_exact () =
  (* With one machine the LP and the unique mapping coincide. *)
  let inst = Gen.chain (Rng.create 3) (Gen.default ~tasks:4 ~types:1 ~machines:1) in
  let r = splitting_solve inst in
  let mp = Mapping.of_array inst [| 0; 0; 0; 0 |] in
  Alcotest.(check bool) "LP equals single-machine period" true
    (Float.abs (r.Splitting.period -. Period.period inst mp) <= 1e-6 *. r.Splitting.period)

let test_splitting_shares_normalised () =
  let inst = Gen.chain (Rng.create 7) (Gen.default ~tasks:6 ~types:2 ~machines:4) in
  let r = splitting_solve inst in
  Array.iteri
    (fun i row ->
      let total = Array.fold_left ( +. ) 0.0 row in
      Alcotest.(check bool) (Printf.sprintf "task %d shares sum to 1" i) true
        (Float.abs (total -. 1.0) < 1e-6);
      Array.iter (fun s -> Alcotest.(check bool) "share in [0,1]" true (s >= -1e-9 && s <= 1.0 +. 1e-9)) row)
    r.Splitting.shares

let test_splitting_loads_below_period () =
  let inst = Gen.chain (Rng.create 9) (Gen.default ~tasks:6 ~types:2 ~machines:4) in
  let r = splitting_solve inst in
  Array.iter
    (fun load ->
      Alcotest.(check bool) "load <= K" true (load <= r.Splitting.period +. 1e-6))
    r.Splitting.loads

let test_splitting_round_feasible () =
  for seed = 1 to 8 do
    let inst = Gen.chain (Rng.create seed) (Gen.default ~tasks:8 ~types:3 ~machines:4) in
    let r = splitting_solve inst in
    let mp, period = Splitting.round_exn inst r in
    Alcotest.(check bool) "specialized" true (Mapping.satisfies inst mp Mapping.Specialized);
    Alcotest.(check bool) "integral period >= LP bound" true
      (period >= r.Splitting.period -. (1e-6 *. period));
    Alcotest.(check (float 1e-9)) "period consistent" (Period.period inst mp) period
  done

(* ------------------------------------------------------------------ *)
(* Simplex unit tests: non-finite rejection, stall budget, warm start  *)
(* ------------------------------------------------------------------ *)

module Rat = Mf_numeric.Rat

(* Every case through both entry points, cold and warm: the one finite
   scan names the same offending entry on each. *)
let test_simplex_rejects_non_finite () =
  let module S = Simplex.Float_solver in
  let module Sp = Mf_lp.Sparse.Float_csc in
  let expect name (row, col) f =
    match f () with
    | exception Simplex.Non_finite loc ->
      Alcotest.(check (pair int int)) name (row, col) (loc.row, loc.col)
    | () -> Alcotest.fail (name ^ ": expected Non_finite")
  in
  List.iter
    (fun (name, loc, a, b, c) ->
      let n = Array.length c in
      let basis = Array.init (Array.length b) (fun i -> n + i) in
      let a = Sp.of_dense a ~cols:n in
      expect (name ^ ", solve_sparse_detailed") loc (fun () ->
          ignore (S.solve_sparse_detailed ~a ~b ~c ()));
      expect (name ^ ", solve_sparse_from_basis") loc (fun () ->
          ignore (S.solve_sparse_from_basis ~a ~b ~c ~basis ())))
    [
      ( "nan in a row",
        (1, 0),
        [| [| 1.0; 0.0 |]; [| Float.nan; 1.0 |] |],
        [| 1.0; 1.0 |],
        [| 1.0; 1.0 |] );
      ( "infinite rhs reported as col n",
        (0, 2),
        [| [| 1.0; 0.0 |] |],
        [| Float.infinity |],
        [| 1.0; 1.0 |] );
      ( "nan objective reported as row -1",
        (-1, 1),
        [| [| 1.0; 1.0 |] |],
        [| 1.0 |],
        [| 0.0; Float.nan |] );
    ]

let test_simplex_stall_budget () =
  let module S = Simplex.Float_solver in
  let a =
    Mf_lp.Sparse.Float_csc.of_dense
      [| [| 1.0; 1.0; 1.0; 0.0 |]; [| 1.0; 3.0; 0.0; 1.0 |] |]
      ~cols:4
  in
  let b = [| 4.0; 6.0 |] in
  let c = [| -3.0; -2.0; 0.0; 0.0 |] in
  let d = S.solve_sparse_detailed ~iter_budget:1 ~a ~b ~c () in
  (match d.S.outcome with
  | S.Stalled -> ()
  | _ -> Alcotest.fail "expected Stalled under a 1-pivot budget");
  match (S.solve_sparse_detailed ~a ~b ~c ()).S.outcome with
  | S.Optimal _ -> ()
  | _ -> Alcotest.fail "expected Optimal under the default budget"

(* Random dense standard-form LPs, feasible by construction: coefficients
   live on the 1/64 grid, and [b = A x0] for a random nonnegative [x0] on
   the same grid — products and row sums are then exact in double, so the
   system is feasible in float and in rational arithmetic alike.  Strictly
   positive rows keep it bounded, so every backend must report Optimal. *)
let random_standard_lp rng ~rows ~n =
  let grid lo hi = float_of_int (lo + Rng.int rng (hi - lo)) /. 64.0 in
  let a = Array.init rows (fun _ -> Array.init n (fun _ -> grid 32 608)) in
  let x0 = Array.init n (fun _ -> grid 0 192) in
  let b =
    Array.map (fun row -> Array.fold_left ( +. ) 0.0 (Array.map2 ( *. ) row x0)) a
  in
  let c = Array.init n (fun _ -> grid (-320) 320) in
  (a, b, c)

let test_simplex_warm_start_agrees () =
  let module FS = Simplex.Float_solver in
  let module RS = Simplex.Rat_solver in
  let rng = Rng.create 99 in
  for case = 1 to 25 do
    let a, b, c = random_standard_lp rng ~rows:3 ~n:6 in
    let d = FS.solve_sparse_detailed ~a:(Mf_lp.Sparse.Float_csc.of_dense a ~cols:6) ~b ~c () in
    let ra = Mf_lp.Sparse.Rat_csc.of_dense (Array.map (Array.map Rat.of_float) a) ~cols:6 in
    let rb = Array.map Rat.of_float b in
    let rc = Array.map Rat.of_float c in
    let warm = RS.solve_sparse_from_basis ~a:ra ~b:rb ~c:rc ~basis:d.FS.basis () in
    let cold = RS.solve_sparse_detailed ~a:ra ~b:rb ~c:rc () in
    match (d.FS.outcome, warm.RS.outcome, cold.RS.outcome) with
    | FS.Optimal (_, fobj), RS.Optimal (_, wobj), RS.Optimal (_, cobj) ->
      Alcotest.(check bool)
        (Printf.sprintf "case %d: warm start = cold exact optimum" case)
        true
        (Rat.compare wobj cobj = 0);
      let exact = Rat.to_float cobj in
      Alcotest.(check bool)
        (Printf.sprintf "case %d: float within 1e-9 of exact" case)
        true
        (Float.abs (fobj -. exact) <= 1e-9 *. Float.max 1.0 (Float.abs exact))
    | _ -> Alcotest.fail (Printf.sprintf "case %d: expected Optimal on all paths" case)
  done

(* The warm-start oracle's cases (random, all-artificial and perturbed
   optimal starting bases) on a fixed spread of lp-differential
   instances: every warm start agrees with its cold solve. *)
let test_simplex_warm_start_any_basis () =
  for k = 0 to 15 do
    let instance = (13 * k) mod 200 in
    for start = 0 to 2 do
      match Mf_proptest.Oracle.warm_start_case ~instance ~start ~seed:(1000 + k) with
      | Ok () -> ()
      | Error msg ->
        Alcotest.fail (Printf.sprintf "instance %d, start kind %d: %s" instance start msg)
    done
  done

(* Tiny standard-form LPs warm-started from every ordered basis of
   distinct column ids (artificials included): the verdict — infeasible,
   unbounded, or the known optimum — never depends on the start, float
   or rational, and the reported basis names only real columns. *)
let test_simplex_warm_start_verdicts () =
  let module FS = Simplex.Float_solver in
  let module RS = Simplex.Rat_solver in
  let lps =
    [
      (* x1 + x2 + x3 = 1 and x1 + x2 = 2 (given negated) *)
      ( "infeasible",
        [| [| 1.0; 1.0; 1.0 |]; [| -1.0; -1.0; 0.0 |] |],
        [| 1.0; -2.0 |],
        [| 1.0; 0.0; 0.0 |],
        `Infeasible );
      (* min -x1 with x1 - x2 = 1, x3 = 1: x2 free to grow *)
      ( "unbounded",
        [| [| 1.0; -1.0; 0.0 |]; [| 0.0; 0.0; 1.0 |] |],
        [| 1.0; 1.0 |],
        [| -1.0; 0.0; 0.0 |],
        `Unbounded );
      (* min x1 + x2 + x3 with x1 + x2 = 1, x2 + x3 = 1: x2 = 1 *)
      ( "optimal",
        [| [| 1.0; 1.0; 0.0 |]; [| 0.0; 1.0; 1.0 |] |],
        [| 1.0; 1.0 |],
        [| 1.0; 1.0; 1.0 |],
        `Optimal 1.0 );
    ]
  in
  List.iter
    (fun (name, a, b, c, want) ->
      let ids = 3 + 2 in
      for p = 0 to ids - 1 do
        for q = 0 to ids - 1 do
          if p <> q then begin
            let basis = [| p; q |] in
            let case = Printf.sprintf "%s from [%d; %d]" name p q in
            let ok_basis bs = Array.for_all (fun j -> j >= 0 && j < ids) bs in
            let fd =
              FS.solve_sparse_from_basis ~a:(Mf_lp.Sparse.Float_csc.of_dense a ~cols:3) ~b ~c
                ~basis ()
            in
            let ra = Mf_lp.Sparse.Rat_csc.of_dense (Array.map (Array.map Rat.of_float) a) ~cols:3 in
            let rd =
              RS.solve_sparse_from_basis ~a:ra ~b:(Array.map Rat.of_float b)
                ~c:(Array.map Rat.of_float c) ~basis ()
            in
            Alcotest.(check bool) (case ^ ": float basis valid") true (ok_basis fd.FS.basis);
            Alcotest.(check bool) (case ^ ": rational basis valid") true (ok_basis rd.RS.basis);
            Alcotest.(check int) (case ^ ": rational never restarts") 0 rd.RS.fallbacks;
            match (want, fd.FS.outcome, rd.RS.outcome) with
            | `Infeasible, FS.Infeasible, RS.Infeasible | `Unbounded, FS.Unbounded, RS.Unbounded
              ->
              ()
            | `Optimal v, FS.Optimal (_, fo), RS.Optimal (_, ro) ->
              Alcotest.(check (float 1e-9)) (case ^ ": float optimum") v fo;
              Alcotest.(check bool) (case ^ ": rational optimum") true
                (Rat.compare ro (Rat.of_float v) = 0)
            | _ -> Alcotest.fail (case ^ ": wrong verdict")
          end
        done
      done)
    lps

(* The root LP of the BENCH_lp chain of size [n] (generator seed 1,
   p=4, m=8, not canonicalized). *)
let bench_lp n =
  Splitting.build (Gen.chain (Rng.create 1) (Gen.default ~tasks:n ~types:4 ~machines:8))

(* A sparse {-1, 0, 1} LP plus a row of ones, feasible by construction
   (b = A x0 for a sparse nonnegative x0, so most right-hand sides are
   zero).  Heavily degenerate: Devex stalls on it and hands over to
   Bland's rule. *)
let degenerate_lp seed =
  let rng = Rng.create seed in
  let rows = 30 + Rng.int rng 40 in
  let n = rows + 20 + Rng.int rng 80 in
  let density = 0.05 +. Rng.uniform rng ~lo:0.0 ~hi:0.2 in
  let entry () =
    if Rng.uniform rng ~lo:0.0 ~hi:1.0 < density then float_of_int (Rng.int rng 3 - 1) else 0.0
  in
  let a = Array.init rows (fun _ -> Array.init n (fun _ -> entry ())) in
  let a = Array.append a [| Array.make n 1.0 |] in
  let x0 =
    Array.init n (fun _ -> if Rng.int rng 6 = 0 then float_of_int (1 + Rng.int rng 3) else 0.0)
  in
  let b = Array.map (fun row -> Array.fold_left ( +. ) 0.0 (Array.map2 ( *. ) row x0)) a in
  let c = Array.init n (fun _ -> float_of_int (Rng.int rng 9 - 4)) in
  (a, b, c)

(* Bit-identity pin.  [bench --regress] allows 1.5x on pivot counts, so
   a change to the pivot sequence could pass it unnoticed; this pins the
   exact counters and objectives of five splitting LPs and one
   degenerate LP, and the node and pivot counts, period and bound of two
   certified portfolio solves.  A change that moves any of them changes
   the solver's arithmetic or its choices, not only its speed.  The
   in-tree LP is the one whose columns carry several predecessor
   entries, so it also pins the order in which {!Splitting.build} lists
   them; on a chain that order does not show.

   Three cases pin paths of the pricing pass.  The n=160 and n=200 LPs
   overflow their Devex weights, which resets them and re-prices; at
   n=160 the re-pricing picks another column than the overflowing pass
   would.  On the degenerate LP the stall detector switches to Bland
   right after a Devex pivot, and Bland's pricing pass must still apply
   that pivot's weight update in full.  The deadline request runs
   warm-started node LPs (Devex phase 1, Bland phase 2) under the
   deadline ledger's pivot charge. *)
let test_simplex_bit_identity_pin () =
  let module FS = Simplex.Float_solver in
  List.iter
    (fun (lp_name, (lp : Splitting.lp), iterations, factorizations, eta_updates, refactorizations,
          objective) ->
      let d = FS.solve_sparse_detailed ~a:lp.a ~b:lp.b ~c:lp.c () in
      let name what = Printf.sprintf "%s %s" lp_name what in
      Alcotest.(check int) (name "iterations") iterations d.FS.iterations;
      Alcotest.(check int) (name "factorizations") factorizations d.FS.factorizations;
      Alcotest.(check int) (name "eta updates") eta_updates d.FS.eta_updates;
      Alcotest.(check int) (name "refactorizations") refactorizations d.FS.refactorizations;
      match d.FS.outcome with
      | FS.Optimal (_, obj) ->
        Alcotest.(check string) (name "objective") (Printf.sprintf "%h" objective)
          (Printf.sprintf "%h" obj)
      | _ -> Alcotest.fail (name "not Optimal"))
    [
      ("n=20", bench_lp 20, 94, 11, 84, 10, -0x1.07036d74eb69p-10);
      ("n=50", bench_lp 50, 192, 20, 173, 19, -0x1.d0a0e289dc322p-12);
      ("n=160", bench_lp 160, 570, 52, 519, 51, -0x1.85d69b404e33p-14);
      ("n=200", bench_lp 200, 778, 67, 712, 66, -0x1.54ce3f034a0aap-15);
      ( "in-tree n=60",
        Splitting.build (Gen.in_tree (Rng.create 3) (Gen.default ~tasks:60 ~types:3 ~machines:6)),
        440,
        34,
        407,
        33,
        -0x1.ef17bbb28798dp-13 );
    ];
  (let a, b, c = degenerate_lp 708 in
   let d =
     FS.solve_sparse_detailed ~a:(Mf_lp.Sparse.Float_csc.of_dense a ~cols:(Array.length c)) ~b ~c ()
   in
   Alcotest.(check int) "degenerate iterations" 149 d.FS.iterations;
   Alcotest.(check int) "degenerate Bland pivots" 1 d.FS.bland_pivots;
   Alcotest.(check int) "degenerate factorizations" 11 d.FS.factorizations;
   match d.FS.outcome with
   | FS.Optimal (_, obj) ->
     Alcotest.(check string) "degenerate objective" "-0x1.f32a79b1b25e9p+3"
       (Printf.sprintf "%h" obj)
   | _ -> Alcotest.fail "degenerate: not Optimal");
  let module Solver = Mf_solve.Solver in
  let hex = Option.map (Printf.sprintf "%h") in
  List.iter
    (fun (name, inst, budget, nodes, pivots, period, bound) ->
      let o =
        Mf_solve.Portfolio.solve (Solver.request_exn ~budget ~want_certificate:true inst)
      in
      Alcotest.(check int) (name ^ " nodes") nodes o.Solver.stats.Solver.exact_nodes;
      Alcotest.(check int) (name ^ " LP pivots") pivots o.Solver.stats.Solver.lp_pivots;
      Alcotest.(check (option string)) (name ^ " period") (Some period) (hex o.Solver.period);
      Alcotest.(check (option string)) (name ^ " bound") (Some bound) (hex o.Solver.lower_bound))
    [
      ( "exact-close s1",
        Gen.chain (Rng.create 1) (Gen.default ~tasks:14 ~types:3 ~machines:5),
        Solver.Unlimited,
        1904,
        4713,
        "0x1.63fe62efaf111p+10",
        "0x1.01df639d36a78p+10" );
      ( "deadline n=50",
        Gen.chain (Rng.create 1) (Gen.default ~tasks:50 ~types:4 ~machines:8),
        Solver.Deadline_ms 10.0,
        16,
        1797,
        "0x1.94ffb135494f7p+11",
        "0x1.1a19b32bd9ccdp+11" );
    ]

(* Allocation guard: minor-heap words per (pivot x matrix entry) of a
   repeated float solve of the n=50 splitting LP.  Counting words, not
   time, makes the guard exact and noise-free.  A hot loop that boxes
   again — a closure over the pricing pass's accumulators, a field
   operation that is not an [external] primitive, a generic [F.t array]
   access — costs tens of words per entry (~40 when every product
   boxes).  Even the lighter closures this core used to have, a phase
   cost read through a closure (~2 words per priced column) and a
   per-entry column callback in the factorisation, added ~0.7 together.
   What remains, ~0.3, is mostly the arrays that factorisations and eta
   updates allocate, plus the per-solve state.  Bytecode boxes every float, so the guard
   runs on native code only. *)
let test_simplex_allocation_guard () =
  match Sys.backend_type with
  | Sys.Bytecode | Sys.Other _ -> Alcotest.skip ()
  | Sys.Native ->
    let module FS = Simplex.Float_solver in
    let lp = bench_lp 50 in
    let solve () = FS.solve_sparse_detailed ~a:lp.a ~b:lp.b ~c:lp.c () in
    ignore (solve ());
    let before = Gc.minor_words () in
    let d = solve () in
    let words = Gc.minor_words () -. before in
    let entries = Array.length lp.a.Mf_lp.Sparse.values in
    let per_entry = words /. float_of_int (d.FS.iterations * entries) in
    Alcotest.(check bool)
      (Printf.sprintf "%.2f minor words per pivot x entry <= 0.5" per_entry)
      true (per_entry <= 0.5)

(* ------------------------------------------------------------------ *)
(* Splitting.round typed errors and deterministic tie-breaking         *)
(* ------------------------------------------------------------------ *)

let test_splitting_round_no_specialized_mapping () =
  (* Three types on two machines: the divisible LP still solves (splitting
     ignores the specialized rule) but rounding has no mapping to build. *)
  let inst = Gen.chain (Rng.create 5) (Gen.default ~tasks:6 ~types:3 ~machines:2) in
  match Splitting.solve inst with
  | Error e -> Alcotest.fail (Splitting.describe_error e)
  | Ok r -> (
    match Splitting.round inst r with
    | Error Splitting.No_specialized_mapping -> ()
    | Ok _ | Error _ -> Alcotest.fail "expected No_specialized_mapping")

let test_splitting_round_tie_breaks_low () =
  (* All-equal shares: every tie must resolve to the lowest eligible
     machine index, so with 2 types the mapping uses exactly machines
     {0, 1} out of 4. *)
  let inst = Gen.chain (Rng.create 11) (Gen.default ~tasks:4 ~types:2 ~machines:4) in
  let n = Instance.task_count inst in
  let m = Instance.machines inst in
  let r =
    {
      Splitting.period = 1.0;
      shares = Array.make_matrix n m (1.0 /. float_of_int m);
      loads = Array.make m 0.0;
      stats = Mip.zero_stats;
    }
  in
  match Splitting.round inst r with
  | Error e -> Alcotest.fail (Splitting.describe_round_error e)
  | Ok (mp, _) ->
    let used =
      List.sort_uniq compare (List.init n (fun i -> Mapping.machine mp i))
    in
    Alcotest.(check (list int)) "ties land on the lowest machine indices" [ 0; 1 ] used

(* ------------------------------------------------------------------ *)
(* lp-differential: the float path against the exact-rational solver   *)
(* on mixed-scale in-forest instances (the tableaus that stalled the   *)
(* previous Bland-under-absolute-eps solver)                           *)
(* ------------------------------------------------------------------ *)

(* Dyadic mixed-scale instances: integer "small" workloads in [1, 32]
   times a per-machine power-of-two scale up to [2^kmax], failure rates
   snapped to the 1/64 grid.  Every coefficient is exactly representable
   in both float and rational, so the float path faces genuinely
   mixed-scale, heavily tied (degenerate) tableaus while the exact
   ground truth stays affordable: tableau entries are ratios of
   small-numerator minors instead of the 52-bit monsters that
   [Rat.of_float] makes of uniform draws.  The family lives in
   Mf_proptest.Instances so the fuzz driver and this suite enumerate the
   same pool. *)
(* ------------------------------------------------------------------ *)
(* LU factorisation: round trips against dense Gaussian elimination    *)
(* ------------------------------------------------------------------ *)

module Lu_f = Mf_lp.Lu.Float_lu

(* Dense Gaussian elimination with partial pivoting: the reference
   solver the LU factors are checked against. *)
let dense_solve a b =
  let d = Array.length b in
  let m = Array.map Array.copy a in
  let x = Array.copy b in
  for k = 0 to d - 1 do
    let piv = ref k in
    for i = k + 1 to d - 1 do
      if Float.abs m.(i).(k) > Float.abs m.(!piv).(k) then piv := i
    done;
    let tmp = m.(k) in
    m.(k) <- m.(!piv);
    m.(!piv) <- tmp;
    let t = x.(k) in
    x.(k) <- x.(!piv);
    x.(!piv) <- t;
    for i = k + 1 to d - 1 do
      let f = m.(i).(k) /. m.(k).(k) in
      if f <> 0.0 then begin
        for j = k to d - 1 do
          m.(i).(j) <- m.(i).(j) -. (f *. m.(k).(j))
        done;
        x.(i) <- x.(i) -. (f *. x.(k))
      end
    done
  done;
  for k = d - 1 downto 0 do
    let s = ref x.(k) in
    for j = k + 1 to d - 1 do
      s := !s -. (m.(k).(j) *. x.(j))
    done;
    x.(k) <- !s /. m.(k).(k)
  done;
  x

(* Diagonally anchored random matrices: diagonal in [1,4), off-diagonal
   entries present with probability [density] in [-2,2).  Well enough
   conditioned that a 1e-6 absolute tolerance is meaningful, sparse
   enough to exercise the Markowitz ordering. *)
let random_lu_matrix rng d density =
  let a = Array.make_matrix d d 0.0 in
  for i = 0 to d - 1 do
    a.(i).(i) <- Rng.uniform rng ~lo:1.0 ~hi:4.0;
    for j = 0 to d - 1 do
      if i <> j && Rng.uniform rng ~lo:0.0 ~hi:1.0 < density then
        a.(i).(j) <- Rng.uniform rng ~lo:(-2.0) ~hi:2.0
    done
  done;
  a

(* The columns of a dense matrix as a column source without an
   auxiliary column. *)
let lu_source_dense a d = { Lu_f.mat = Sparse_f.of_dense a ~cols:d; aux_ind = [||]; aux_val = [||] }

let lu_factorize_dense a d =
  let basis = Array.init d Fun.id in
  Lu_f.factorize ~src:(lu_source_dense a d) ~basis

let max_abs_diff got want =
  let err = ref 0.0 in
  Array.iteri (fun i g -> err := Float.max !err (Float.abs (g -. want.(i)))) got;
  !err

let test_lu_ftran_btran_roundtrip () =
  let rng = Rng.create 46 in
  for case = 1 to 150 do
    let d = 2 + Rng.int rng 15 in
    let a = random_lu_matrix rng d (Rng.uniform rng ~lo:0.1 ~hi:0.9) in
    let fac = lu_factorize_dense a d in
    (* With basis.(p) = p, basis-position indexing equals column
       indexing, so ftran/btran outputs compare directly. *)
    let b = Array.init d (fun _ -> Rng.uniform rng ~lo:(-5.0) ~hi:5.0) in
    let out = Array.make d 0.0 in
    Lu_f.ftran fac ~rhs:b ~out;
    let ferr = max_abs_diff out (dense_solve a b) in
    if ferr > 1e-6 then
      Alcotest.fail (Printf.sprintf "case %d (d=%d): ftran err %g" case d ferr);
    let c = Array.init d (fun _ -> Rng.uniform rng ~lo:(-5.0) ~hi:5.0) in
    let y = Array.make d 0.0 in
    Lu_f.btran fac ~cvec:c ~out:y;
    let at = Array.init d (fun i -> Array.init d (fun j -> a.(j).(i))) in
    let berr = max_abs_diff y (dense_solve at c) in
    if berr > 1e-6 then
      Alcotest.fail (Printf.sprintf "case %d (d=%d): btran err %g" case d berr)
  done

let test_lu_eta_update_vs_refactorize () =
  let rng = Rng.create 47 in
  let accepted = ref 0 in
  for case = 1 to 100 do
    let d = 2 + Rng.int rng 15 in
    let a = random_lu_matrix rng d (Rng.uniform rng ~lo:0.1 ~hi:0.9) in
    let fac = lu_factorize_dense a d in
    (* Apply a few column exchanges through the eta file, tracking the
       exchanged matrix densely; the updated factors must keep solving
       the current matrix. *)
    let acur = Array.map Array.copy a in
    let steps = 1 + Rng.int rng 5 in
    for _ = 1 to steps do
      let pos = Rng.int rng d in
      let newcol =
        Array.init d (fun _ ->
            if Rng.uniform rng ~lo:0.0 ~hi:1.0 < 0.5 then
              Rng.uniform rng ~lo:(-2.0) ~hi:2.0
            else 0.0)
      in
      (* Anchor the pivot entry so the eta pivot stays away from its
         floor and the update is (almost) always accepted. *)
      newcol.(pos) <- newcol.(pos) +. 3.0;
      let w = Array.make d 0.0 in
      Lu_f.ftran fac ~rhs:newcol ~out:w;
      if Lu_f.update fac ~w ~pos then begin
        incr accepted;
        for i = 0 to d - 1 do
          acur.(i).(pos) <- newcol.(i)
        done
      end
    done;
    let b = Array.init d (fun _ -> Rng.uniform rng ~lo:(-5.0) ~hi:5.0) in
    let out = Array.make d 0.0 in
    Lu_f.ftran fac ~rhs:b ~out;
    let xref = dense_solve acur b in
    let uerr = max_abs_diff out xref in
    if uerr > 1e-5 then
      Alcotest.fail
        (Printf.sprintf "case %d (d=%d, etas=%d): eta-updated ftran err %g" case d
           (Lu_f.eta_count fac) uerr);
    (* A fresh factorization of the exchanged matrix agrees with the
       eta-updated one. *)
    let fresh = lu_factorize_dense acur d in
    let out2 = Array.make d 0.0 in
    Lu_f.ftran fresh ~rhs:b ~out:out2;
    Alcotest.(check bool)
      (Printf.sprintf "case %d: fresh factorization has no etas" case)
      true
      (Lu_f.eta_count fresh = 0);
    let rerr = max_abs_diff out out2 in
    if rerr > 1e-5 then
      Alcotest.fail
        (Printf.sprintf "case %d (d=%d): eta update vs refactorize err %g" case d rerr)
  done;
  (* The anchored pivot should make acceptance the norm, not the
     exception — otherwise the test exercised nothing. *)
  Alcotest.(check bool)
    (Printf.sprintf "eta updates mostly accepted (%d)" !accepted)
    true (!accepted >= 200)

let test_lu_singular_detected () =
  (* Column 1 = 2 x column 0: structurally rank deficient. *)
  let a = [| [| 1.0; 2.0; 0.0 |]; [| 3.0; 6.0; 1.0 |]; [| 0.0; 0.0; 1.0 |] |] in
  (match lu_factorize_dense a 3 with
  | exception Mf_lp.Lu.Singular _ -> ()
  | _ -> Alcotest.fail "rank-deficient matrix factorized");
  (* Zero matrix fails at the first elimination step. *)
  let z = Array.make_matrix 2 2 0.0 in
  match lu_factorize_dense z 2 with
  | exception Mf_lp.Lu.Singular 0 -> ()
  | exception Mf_lp.Lu.Singular k ->
      Alcotest.fail (Printf.sprintf "zero matrix singular at step %d, expected 0" k)
  | _ -> Alcotest.fail "zero matrix factorized"

(* Basis repair: [factorize_repair] on a dense matrix, returning the
   factors and the (position, row) substitutions in report order. *)
let lu_repair_dense a d =
  let subs = ref [] in
  let fac =
    Lu_f.factorize_repair ~src:(lu_source_dense a d)
      ~basis:(Array.init d Fun.id)
      ~repair:(fun ~pos ~row -> subs := (pos, row) :: !subs)
  in
  (fac, List.rev !subs)

(* [a] with each repaired column replaced by its unit column. *)
let repaired_matrix a subs =
  let r = Array.map Array.copy a in
  List.iter
    (fun (pos, row) -> Array.iteri (fun i line -> line.(pos) <- (if i = row then 1.0 else 0.0)) r)
    subs;
  r

(* ftran/btran of the repaired factors against dense solves of the
   repaired matrix (basis.(p) = p, so positions index columns). *)
let check_repaired_solves name a subs fac rng =
  let d = Array.length a in
  let ar = repaired_matrix a subs in
  let b = Array.init d (fun _ -> Rng.uniform rng ~lo:(-5.0) ~hi:5.0) in
  let out = Array.make d 0.0 in
  Lu_f.ftran fac ~rhs:b ~out;
  let ferr = max_abs_diff out (dense_solve ar b) in
  if ferr > 1e-6 then Alcotest.fail (Printf.sprintf "%s: repaired ftran err %g" name ferr);
  let y = Array.make d 0.0 in
  Lu_f.btran fac ~cvec:b ~out:y;
  let at = Array.init d (fun i -> Array.init d (fun j -> ar.(j).(i))) in
  let berr = max_abs_diff y (dense_solve at b) in
  if berr > 1e-6 then Alcotest.fail (Printf.sprintf "%s: repaired btran err %g" name berr)

let pp_subs subs =
  String.concat "; " (List.map (fun (p, r) -> Printf.sprintf "(%d,%d)" p r) subs)

let test_lu_basis_repair () =
  let rng = Rng.create 48 in
  let cases =
    [
      (* Empty column 1: the other columns cover rows 2 then 0, so the
         basis is completed by the unit column of row 1. *)
      ( "empty column",
        [| [| 2.0; 0.0; 0.0 |]; [| 1.0; 0.0; 0.0 |]; [| 0.0; 0.0; 3.0 |] |],
        [ (1, 1) ] );
      (* Column 1 = 2 x column 0: column 0 takes row 0, column 1
         eliminates to zero and takes row 1, the lowest uncovered. *)
      ( "parallel columns",
        [| [| 1.0; 2.0; 0.0 |]; [| 2.0; 4.0; 1.0 |]; [| 0.0; 0.0; 1.0 |] |],
        [ (1, 1) ] );
      (* Rank 2 of 4: columns 0 and 2 cover rows 0 and 3; their
         multiples in columns 1 and 3 take rows 1 then 2. *)
      ( "rank-2 deficiency",
        [|
          [| 1.0; 2.0; 0.0; 0.0 |];
          [| 0.0; 0.0; 1.0; 3.0 |];
          [| 1.0; 2.0; 0.0; 0.0 |];
          [| 0.0; 0.0; 1.0; 3.0 |];
        |],
        [ (1, 1); (3, 2) ] );
    ]
  in
  List.iter
    (fun (name, a, want) ->
      let d = Array.length a in
      (match lu_factorize_dense a d with
      | exception Mf_lp.Lu.Singular _ -> ()
      | _ -> Alcotest.fail (name ^ ": plain factorize accepted a singular basis"));
      let fac, subs = lu_repair_dense a d in
      Alcotest.(check string) (name ^ ": substitutions") (pp_subs want) (pp_subs subs);
      let _, again = lu_repair_dense a d in
      Alcotest.(check string) (name ^ ": deterministic") (pp_subs subs) (pp_subs again);
      check_repaired_solves name a subs fac rng)
    cases;
  (* Random singular bases: emptied columns and exact multiples of
     other columns.  Every repair must land on a distinct, previously
     uncovered row, and the factors must solve the repaired matrix. *)
  for case = 1 to 100 do
    let d = 2 + Rng.int rng 11 in
    let a = random_lu_matrix rng d (Rng.uniform rng ~lo:0.1 ~hi:0.9) in
    for _ = 1 to 1 + Rng.int rng (d / 2 + 1) do
      let j = Rng.int rng d in
      if Rng.int rng 2 = 0 then Array.iter (fun line -> line.(j) <- 0.0) a
      else
        let k = Rng.int rng d in
        if k <> j then Array.iter (fun line -> line.(j) <- 2.0 *. line.(k)) a
    done;
    let name = Printf.sprintf "random case %d (d=%d)" case d in
    let fac, subs = lu_repair_dense a d in
    let rows = List.map snd subs in
    Alcotest.(check int)
      (name ^ ": repaired rows distinct")
      (List.length rows)
      (List.length (List.sort_uniq compare rows));
    check_repaired_solves name a subs fac rng
  done

(* A basis that mixes the three kinds of column a source names — CSC
   columns, unit columns (the simplex's artificials) and the auxiliary
   sparse column (its x0) — against dense elimination of the matrix
   those columns make. *)
let test_lu_mixed_source () =
  let rng = Rng.create 49 in
  for case = 1 to 100 do
    let d = 2 + Rng.int rng 15 in
    let a = random_lu_matrix rng d (Rng.uniform rng ~lo:0.1 ~hi:0.9) in
    (* Position [p] holds a column anchored at row [p]: CSC column [p],
       the unit column e_p, or (at one position) the auxiliary column,
       a random sparse column with entry [p] in [1, 4). *)
    let aux_pos = Rng.int rng d in
    let aux = Array.make d 0.0 in
    for i = 0 to d - 1 do
      if i = aux_pos then aux.(i) <- Rng.uniform rng ~lo:1.0 ~hi:4.0
      else if Rng.bool rng then aux.(i) <- Rng.uniform rng ~lo:(-2.0) ~hi:2.0
    done;
    let aux_ind = List.filter (fun i -> aux.(i) <> 0.0) (List.init d Fun.id) in
    let src =
      {
        Lu_f.mat = Sparse_f.of_dense a ~cols:d;
        aux_ind = Array.of_list aux_ind;
        aux_val = Array.of_list (List.map (fun i -> aux.(i)) aux_ind);
      }
    in
    let basis =
      Array.init d (fun p -> if p = aux_pos then 2 * d else if Rng.bool rng then p else d + p)
    in
    let dense =
      Array.init d (fun i ->
          Array.init d (fun p ->
              let j = basis.(p) in
              if j < d then a.(i).(j) else if j < 2 * d then if i = j - d then 1.0 else 0.0
              else aux.(i)))
    in
    let fac = Lu_f.factorize ~src ~basis in
    let name = Printf.sprintf "case %d (d=%d)" case d in
    let b = Array.init d (fun _ -> Rng.uniform rng ~lo:(-5.0) ~hi:5.0) in
    let out = Array.make d 0.0 in
    Lu_f.ftran fac ~rhs:b ~out;
    let ferr = max_abs_diff out (dense_solve dense b) in
    if ferr > 1e-6 then Alcotest.fail (Printf.sprintf "%s: ftran err %g" name ferr);
    let y = Array.make d 0.0 in
    Lu_f.btran fac ~cvec:b ~out:y;
    let dt = Array.init d (fun i -> Array.init d (fun j -> dense.(j).(i))) in
    let berr = max_abs_diff y (dense_solve dt b) in
    if berr > 1e-6 then Alcotest.fail (Printf.sprintf "%s: btran err %g" name berr)
  done

(* [Sparse.of_columns] builds every node-LP and splitting-LP matrix; these
   are the inputs it documents as rejected. *)
let of_columns_raises name msg ~rows ~cols columns =
  Alcotest.check_raises name (Invalid_argument ("Sparse.of_columns: " ^ msg)) (fun () ->
      ignore (Sparse_f.of_columns ~rows ~cols columns))

let test_sparse_of_columns_count () =
  of_columns_raises "2 lists for 3 columns" "column count" ~rows:2 ~cols:3
    [| [ (0, 1.0) ]; [] |];
  of_columns_raises "3 lists for 2 columns" "column count" ~rows:2 ~cols:2 [| []; []; [] |]

let test_sparse_of_columns_row_range () =
  List.iter
    (fun i ->
      of_columns_raises (Printf.sprintf "row %d of 2" i) "row out of range" ~rows:2 ~cols:2
        [| [ (0, 1.0) ]; [ (i, 1.0) ] |])
    [ -1; 2 ]

let test_sparse_of_columns_duplicate () =
  of_columns_raises "row 1 twice in column 1" "duplicate entry" ~rows:3 ~cols:2
    [| [ (1, 1.0) ]; [ (2, 1.0); (1, 2.0); (1, 3.0) ] |];
  (* The same row in different columns is not a duplicate. *)
  let t = Sparse_f.of_columns ~rows:2 ~cols:2 [| [ (0, 1.0) ]; [ (0, 2.0); (1, 3.0) ] |] in
  let entries j =
    List.init
      (t.Mf_lp.Sparse.colptr.(j + 1) - t.Mf_lp.Sparse.colptr.(j))
      (fun e ->
        let k = t.Mf_lp.Sparse.colptr.(j) + e in
        (t.Mf_lp.Sparse.rowind.(k), t.Mf_lp.Sparse.values.(k)))
  in
  Alcotest.(check (list (pair int (float 0.0)))) "column 0" [ (0, 1.0) ] (entries 0);
  Alcotest.(check (list (pair int (float 0.0)))) "column 1" [ (0, 2.0); (1, 3.0) ] (entries 1)

let dyadic_instance = Mf_proptest.Instances.dyadic_lp_instance

(* Small tier: cold exact ground truth (full two-phase rational solve). *)
let lp_differential_small = 200

let small_tier_instance = Mf_proptest.Instances.lp_differential_instance

(* Large tier: sizes where a cold rational solve is unaffordable; ground
   truth is the rational solver warm-started from the float basis (the
   certification path itself, checked end to end against the float
   objective). *)
let lp_differential_large = [ (16, 4); (20, 4); (25, 4); (30, 4); (16, 6); (20, 6); (25, 6); (30, 6) ]

let lp_differential_total = lp_differential_small + List.length lp_differential_large

let check_rel name float_period exact_period =
  let rel =
    Float.abs (float_period -. exact_period) /. Float.max 1.0 (Float.abs exact_period)
  in
  if rel > 1e-9 then
    Alcotest.fail
      (Printf.sprintf "%s: period %.17g vs exact %.17g (rel %.3g)" name float_period
         exact_period rel)

let test_lp_differential () =
  let rational = ref 0 in
  let solved inst name =
    match Splitting.solve inst with
    | Error e -> Alcotest.fail (Printf.sprintf "%s: spurious %s" name (Splitting.describe_error e))
    | Ok r ->
      (match r.Splitting.stats.Mip.path with `Rational -> incr rational | `Float -> ());
      r
  in
  for i = 0 to lp_differential_small - 1 do
    let name = Printf.sprintf "small %d" i in
    let inst = small_tier_instance i in
    let r = solved inst name in
    match Splitting.solve_exact inst with
    | Error e ->
      Alcotest.fail (Printf.sprintf "%s: exact solver says %s" name (Splitting.describe_error e))
    | Ok exact -> check_rel name r.Splitting.period exact
  done;
  List.iteri
    (fun idx (n, m) ->
      let name = Printf.sprintf "large %dx%d" n m in
      let inst = dyadic_instance ~tasks:n ~machines:m ~kmax:10 (1000 + idx) in
      let r = solved inst name in
      (* Warm-started exact certification as ground truth: realize the
         float solver's final basis in rational arithmetic and finish
         with exact phase-2 pivots. *)
      let module FS = Simplex.Float_solver in
      let module RS = Simplex.Rat_solver in
      let { Splitting.a; b; c } = Splitting.build inst in
      let d = FS.solve_sparse_detailed ~a ~b ~c () in
      match (Mip.certify ~basis:d.FS.basis ~a ~b ~c ()).RS.outcome with
      | RS.Optimal (_, obj) ->
        let rho = -.Rat.to_float obj in
        Alcotest.(check bool) (name ^ ": positive throughput") true (rho > 0.0);
        check_rel name r.Splitting.period (1.0 /. rho)
      | _ -> Alcotest.fail (name ^ ": warm-started exact solve not Optimal"))
    lp_differential_large;
  (* The fallback is a safety net, not the common path: the float solver
     should certify the overwhelming majority of the suite on its own. *)
  Alcotest.(check bool)
    (Printf.sprintf "rational fallback rare (%d/%d)" !rational lp_differential_total)
    true
    (10 * !rational <= lp_differential_total)

let () =
  Alcotest.run "mf_lp"
    [
      ( "simplex",
        [
          Alcotest.test_case "textbook max" `Quick test_lp_textbook_max;
          Alcotest.test_case "textbook min" `Quick test_lp_textbook_min;
          Alcotest.test_case "equality and bounds" `Quick test_lp_equality_and_bounds;
          Alcotest.test_case "free variable" `Quick test_lp_free_variable;
          Alcotest.test_case "infeasible" `Quick test_lp_infeasible;
          Alcotest.test_case "unbounded" `Quick test_lp_unbounded;
          Alcotest.test_case "degenerate" `Quick test_lp_degenerate;
          Alcotest.test_case "float vs exact" `Slow test_float_vs_exact_simplex;
          Alcotest.test_case "rejects non-finite" `Quick test_simplex_rejects_non_finite;
          Alcotest.test_case "stall budget" `Quick test_simplex_stall_budget;
          Alcotest.test_case "warm start" `Slow test_simplex_warm_start_agrees;
          Alcotest.test_case "warm start from any basis" `Slow
            test_simplex_warm_start_any_basis;
          Alcotest.test_case "warm start verdicts" `Quick test_simplex_warm_start_verdicts;
          Alcotest.test_case "bit-identity pin" `Quick test_simplex_bit_identity_pin;
          Alcotest.test_case "allocation guard" `Quick test_simplex_allocation_guard;
        ] );
      ( "splitting",
        [
          Alcotest.test_case "lower bound" `Slow test_splitting_lower_bound;
          Alcotest.test_case "single machine" `Quick test_splitting_single_machine_exact;
          Alcotest.test_case "shares normalised" `Quick test_splitting_shares_normalised;
          Alcotest.test_case "loads below period" `Quick test_splitting_loads_below_period;
          Alcotest.test_case "rounding feasible" `Quick test_splitting_round_feasible;
          Alcotest.test_case "round without specialized mapping" `Quick
            test_splitting_round_no_specialized_mapping;
          Alcotest.test_case "round tie-breaks low" `Quick test_splitting_round_tie_breaks_low;
        ] );
      ( "lu",
        [
          Alcotest.test_case "ftran/btran vs dense" `Quick test_lu_ftran_btran_roundtrip;
          Alcotest.test_case "eta update vs refactorize" `Quick
            test_lu_eta_update_vs_refactorize;
          Alcotest.test_case "singular detected" `Quick test_lu_singular_detected;
          Alcotest.test_case "basis repair" `Quick test_lu_basis_repair;
          Alcotest.test_case "mixed column source" `Quick test_lu_mixed_source;
        ] );
      ( "sparse",
        [
          Alcotest.test_case "of_columns column count" `Quick test_sparse_of_columns_count;
          Alcotest.test_case "of_columns row out of range" `Quick
            test_sparse_of_columns_row_range;
          Alcotest.test_case "of_columns duplicate entry" `Quick
            test_sparse_of_columns_duplicate;
        ] );
      ( "lp-differential",
        [ Alcotest.test_case "float path vs exact (208)" `Slow test_lp_differential ] );
      ( "micro-mip",
        [
          Alcotest.test_case "matches brute force" `Slow test_micro_mip_matches_brute;
          Alcotest.test_case "K equals period" `Slow test_micro_mip_k_close_to_period;
          Alcotest.test_case "works on trees" `Slow test_micro_mip_on_tree;
          Alcotest.test_case "agrees with Dfs and Brute" `Slow
            test_micro_mip_agrees_with_dfs_and_brute;
          Alcotest.test_case "node budget" `Quick test_micro_mip_node_budget;
          Alcotest.test_case "fewer machines than types" `Quick
            test_micro_mip_fewer_machines_than_types;
          Alcotest.test_case "layout" `Quick test_micro_mip_layout;
        ] );
    ]
