(* The two closed-loop solver workloads: one caller, no cache, each
   request a full {!Mf_solve.Portfolio.solve} with a certificate.

   - exact-close: eight specialized-rule chains (p=3, m=5, n=14: the
     smallest size at which the engine turns on per-node LP bounds) under
     [Unlimited]; every one closes to a proven optimum, recorded below, in
     50-150 ms, so a run repeats every solve a few dozen times.
   - deadline-mix: chains of the BENCH_lp family (p=4, m=8,
     n in {20, 50, 100, 200}) under [Deadline_ms 5] and [Deadline_ms 10]:
     the deadline ledger decides how much work runs.  Short deadlines
     keep every solve near a quarter second or less, so a run repeats
     each one fifteen to twenty times.

   The seed relabels machines and types and shuffles the request order;
   the canonical form folds relabelings away, so the work per request is
   the same on every seed while the bytes the solver receives are not. *)

open Common
module Solver = Mf_solve.Solver
module Portfolio = Mf_solve.Portfolio
module Gen = Mf_workload.Gen

type kind = Exact_close | Deadline_mix

(* Proven optima of the exact-close chains, by generator seed, as exact
   hex floats; relabelings preserve them bit for bit. *)
let exact_optima =
  [
    (1, 0x1.63fe62efaf111p+10);
    (2, 0x1.c835ae7638485p+9);
    (3, 0x1.56793e331db76p+10);
    (4, 0x1.6e7b74250d6cap+10);
    (5, 0x1.4e47aba6d8169p+10);
    (6, 0x1.275f127a1018ep+10);
    (7, 0x1.b3a44e452646ep+10);
    (8, 0x1.f692b1102277ep+9);
  ]

let exact_base s = Gen.chain (Rng.create s) (Gen.default ~tasks:14 ~types:3 ~machines:5)

let deadline_sizes = [ 20; 50; 100; 200 ]
let deadlines_ms = [ 5.0; 10.0 ]
let deadline_base n = Gen.chain (Rng.create 1) (Gen.default ~tasks:n ~types:4 ~machines:8)

(* (label, request, recorded optimum) triples in the seed's order. *)
let requests kind rng =
  let items =
    match kind with
    | Exact_close ->
      List.map
        (fun (s, opt) ->
          let inst, _ = relabel rng (exact_base s) in
          (Printf.sprintf "s%d" s, Solver.request_exn ~want_certificate:true inst, Some opt))
        exact_optima
    | Deadline_mix ->
      List.concat_map
        (fun n ->
          List.map
            (fun d ->
              let inst, _ = relabel rng (deadline_base n) in
              ( Printf.sprintf "n%d-D%g" n d,
                Solver.request_exn ~want_certificate:true ~budget:(Solver.Deadline_ms d) inst,
                None ))
            deadlines_ms)
        deadline_sizes
  in
  let a = Array.of_list items in
  Rng.shuffle rng a;
  a

let deadline_of (req : Solver.request) =
  match req.Solver.budget with Solver.Deadline_ms d -> d | _ -> nan

let check_answer kind (label, req, opt) (o : Solver.outcome) =
  check_outcome ~what:label req o;
  match (kind, opt, o.Solver.period) with
  | Exact_close, Some opt, Some p ->
    check (o.Solver.status = Solver.Optimal) (label ^ ": not proved optimal");
    check (close p opt) (Printf.sprintf "%s: optimum %h, recorded %h" label p opt)
  | Exact_close, _, _ -> check false (label ^ ": no period")
  | Deadline_mix, _, _ -> (
    match o.Solver.status with
    | Solver.Feasible _ | Solver.Optimal -> ()
    | s -> check false (label ^ ": status " ^ Solver.status_to_string s))

(* Mean period / certified bound: 1 + the mean certified gap. *)
let period_over_bound outcomes =
  mean
    (List.filter_map
       (fun (o : Solver.outcome) ->
         match (o.Solver.period, o.Solver.lower_bound) with
         | Some p, Some b when b > 0.0 -> Some (p /. b)
         | _ -> None)
       outcomes)

(* The untimed warm-up pass: every request with at most 20 tasks (all of
   exact-close, the n=20 ones of deadline-mix), cut to a 200-node search. *)
let warm_up reqs =
  Array.iter
    (fun (_, (req : Solver.request), _) ->
      if Mf_core.Instance.task_count req.Solver.instance <= 20 then
        ignore (Portfolio.solve { req with Solver.budget = Solver.Nodes 200 }))
    reqs

(* [pass reqs] solves every request once; returns outcomes and per-request
   wall seconds, plus the pass wall. *)
let pass reqs =
  let t0 = now () in
  let res = Array.map (fun (_, req, _) -> timed (fun () -> Portfolio.solve req)) reqs in
  (res, now () -. t0)

let run kind ~seed ~seconds ~trace =
  let setups = ref [] in
  let set_up () =
    let t0 = now () in
    let reqs = requests kind (Rng.create seed) in
    warm_up reqs;
    setups := (now () -. t0) :: !setups;
    reqs
  in
  let reqs = set_up () in
  if not trace then begin
    (* Timed phase: whole passes until the run length is used up.  Each
       solve is followed by one more (untimed) set-up, so that the set-up
       median samples the whole run.  Every request keeps its fastest
       repeat: on a shared host the slower repeats measure the other
       tenants' load, not the solver. *)
    let t_start = now () and passes = ref 0 in
    let best = Array.make (Array.length reqs) infinity and last = Array.make (Array.length reqs) None in
    while !passes = 0 || now () -. t_start < float_of_int seconds do
      incr passes;
      Array.iteri
        (fun i ((_, req, _) as r) ->
          let o, t = timed (fun () -> Portfolio.solve req) in
          incr attempted;
          check_answer kind r o;
          best.(i) <- Float.min best.(i) t;
          last.(i) <- Some o;
          ignore (set_up ()))
        reqs
    done;
    let best = Array.to_list best in
    let deadlines = Array.to_list (Array.map (fun (_, req, _) -> deadline_of req) reqs) in
    report "setup_s" "s" (median !setups);
    report "wall_s" "s" (sum best);
    report "rss_peak_mb" "MB" (rss_peak_mb ());
    report "p50_ms" "ms" (1000.0 *. median best);
    report "miss_p50_ms" "ms" (1000.0 *. median best);
    (match kind with
    | Deadline_mix ->
      report "overrun_ratio" "ratio" (1000.0 *. sum best /. sum deadlines);
      report "overrun_p50" "ratio" (median (List.map2 (fun t d -> 1000.0 *. t /. d) best deadlines))
    | Exact_close ->
      report "overrun_ratio" "ratio" 1.0;
      report "overrun_p50" "ratio" 1.0);
    report "period_over_bound" "ratio" (period_over_bound (List.filter_map Fun.id (Array.to_list last)));
    report "slo_frac" "frac" 1.0;
    report "recovery" "frac" 1.0;
    Printf.printf "  (%d passes of %d requests; fastest repeats: %s)\n" !passes (Array.length reqs)
      (String.concat ", "
         (List.map2 (fun (label, _, _) t -> Printf.sprintf "%s %.0f ms" label (1000.0 *. t))
            (Array.to_list reqs) best))
  end
  else begin
    (* The traced rebuild of the requests between two untraced reference
       passes (their mean is the untraced wall); the rebuild must
       reproduce every outcome. *)
    let res, w1 = pass reqs in
    let traced, traced_wall =
      timed (fun () -> Array.map (fun (_, req, _) -> Stages.solve req) reqs)
    in
    let _, w2 = pass reqs in
    let untraced_wall = 0.5 *. (w1 +. w2) in
    let consistent = ref true in
    Array.iteri
      (fun i (o, _) ->
        incr attempted;
        let label, _, _ = reqs.(i) in
        check_answer kind reqs.(i) o;
        let t = traced.(i) in
        let same =
          t.Stages.period = o.Solver.period
          && t.Stages.nodes = o.Solver.stats.Solver.exact_nodes
          && t.Stages.pivots = o.Solver.stats.Solver.lp_pivots
        in
        if not same then begin
          consistent := false;
          Printf.eprintf "perfbench: traced %s: nodes %d/%d pivots %d/%d\n%!" label t.Stages.nodes
            o.Solver.stats.Solver.exact_nodes t.Stages.pivots o.Solver.stats.Solver.lp_pivots
        end)
      res;
    Layers.add "trace.consistent" (if !consistent then 1.0 else 0.0);
    Layers.add "trace.wall.s" traced_wall;
    Layers.add "trace.untraced_wall.s" untraced_wall;
    (match kind with
    | Deadline_mix ->
      let allowance =
        sum (Array.to_list (Array.map (fun t -> float_of_int (Option.get t.Stages.allowance)) traced))
      in
      let spent = sum (Array.to_list (Array.map (fun t -> float_of_int t.Stages.spent) traced)) in
      Layers.add "ledger.allowance" (allowance /. float_of_int (Array.length traced));
      Layers.add "ledger.spent" spent
    | Exact_close -> ());
    Micro.try_assign (Array.to_list (Array.map (fun (_, req, _) -> req.Solver.instance) reqs))
  end
