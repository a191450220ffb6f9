(* mfopt - command-line front-end for the micro-factory throughput
   optimization library.

   Sub-commands:
     generate    draw a random instance (paper parameters) to a file
     solve       run heuristics / exact solvers on an instance
     exact       branch-and-bound engine with full statistics
     simulate    discrete-event simulation of a mapping
     experiment  regenerate one of the paper's figures
     lp          LP bounds: divisible-workload relaxation and the MIP *)

open Cmdliner
module Instance = Mf_core.Instance
module Instance_io = Mf_core.Instance_io
module Mapping = Mf_core.Mapping
module Period = Mf_core.Period
module Products = Mf_core.Products
module Registry = Mf_heuristics.Registry
module Gen = Mf_workload.Gen
module Rng = Mf_prng.Rng

(* ------------------------------------------------------------------ *)
(* Shared arguments                                                     *)
(* ------------------------------------------------------------------ *)

let instance_arg =
  let doc = "Instance file (format of Instance_io; see $(b,mfopt generate))." in
  Arg.(required & pos 0 (some file) None & info [] ~docv:"INSTANCE" ~doc)

let seed_arg =
  let doc = "Random seed." in
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc)

let rule_arg =
  let rule_conv =
    Arg.enum
      [
        ("specialized", Mapping.Specialized);
        ("general", Mapping.General);
        ("oto", Mapping.One_to_one);
      ]
  in
  Arg.(
    value & opt rule_conv Mapping.Specialized
    & info [ "rule" ] ~docv:"RULE" ~doc:"Mapping rule: specialized (default), general, or oto.")

(* [--deadline] and [--node-budget] as one [Solver.budget]; both at once
   is a usage error of sub-command [cmd] (exit 2). *)
let budget_of ~cmd deadline node_budget =
  match (deadline, node_budget) with
  | Some _, Some _ ->
    prerr_endline ("mfopt " ^ cmd ^ ": --deadline and --node-budget are exclusive");
    exit 2
  | Some d, _ -> Mf_solve.Solver.Deadline_ms d
  | _, Some k -> Mf_solve.Solver.Nodes k
  | None, None -> Mf_solve.Solver.Unlimited

let heuristic_conv =
  let parse s =
    match Registry.of_name s with
    | Some h -> Ok h
    | None -> Error (`Msg (Printf.sprintf "unknown heuristic %s (try H1..H4f)" s))
  in
  Arg.conv (parse, fun fmt h -> Format.pp_print_string fmt (Registry.name h))

(* ------------------------------------------------------------------ *)
(* generate                                                             *)
(* ------------------------------------------------------------------ *)

let generate_cmd =
  let tasks =
    Arg.(value & opt int 20 & info [ "n"; "tasks" ] ~docv:"N" ~doc:"Number of tasks.")
  in
  let types =
    Arg.(value & opt int 4 & info [ "p"; "types" ] ~docv:"P" ~doc:"Number of task types.")
  in
  let machines =
    Arg.(value & opt int 8 & info [ "m"; "machines" ] ~docv:"M" ~doc:"Number of machines.")
  in
  let high_failures =
    Arg.(
      value & flag
      & info [ "high-failures" ] ~doc:"Failure rates in [0,0.1) instead of [0.005,0.02).")
  in
  let task_attached =
    Arg.(
      value & flag
      & info [ "task-attached" ]
          ~doc:"Failures depend on the task only (f(i,u) = f_i), as in Section 7.2.")
  in
  let tree =
    Arg.(value & flag & info [ "tree" ] ~doc:"Random in-tree application instead of a chain.")
  in
  let output =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output file (stdout by default).")
  in
  let run tasks types machines high_failures task_attached tree seed output =
    let params =
      let p = Gen.default ~tasks ~types ~machines in
      let p = if high_failures then Gen.with_high_failures p else p in
      { p with Gen.task_attached_failures = task_attached }
    in
    let rng = Rng.create seed in
    let inst = if tree then Gen.in_tree rng params else Gen.chain rng params in
    match output with
    | None -> print_string (Instance_io.to_string inst)
    | Some path ->
      Instance_io.write_file path inst;
      Printf.printf "wrote %s (n=%d, p=%d, m=%d)\n" path tasks types machines
  in
  let doc = "Draw a random instance with the paper's parameters." in
  Cmd.v
    (Cmd.info "generate" ~doc)
    Term.(
      const run $ tasks $ types $ machines $ high_failures $ task_attached $ tree $ seed_arg
      $ output)

(* ------------------------------------------------------------------ *)
(* solve                                                                *)
(* ------------------------------------------------------------------ *)

let print_solution inst label mp =
  let period = Period.period inst mp in
  Printf.printf "%-6s period %10.2f ms   throughput %.6f /ms   mapping " label period
    (Period.throughput inst mp);
  Array.iteri
    (fun i u -> Printf.printf "%sT%d:M%d" (if i > 0 then " " else "") i u)
    (Mapping.to_array mp);
  print_newline ()

let solve_cmd =
  let module Solver = Mf_solve.Solver in
  let engine =
    let engine_conv =
      Arg.enum
        [
          ("auto", `Auto);
          ("heuristics", `Heuristics);
          ("lp", `Lp);
          ("exact", `Exact);
          ("brute", `Brute);
        ]
    in
    Arg.(
      value & opt engine_conv `Auto
      & info [ "engine" ] ~docv:"ENGINE"
          ~doc:
            "Which engine to run: $(b,auto) (default: the anytime portfolio — heuristics, \
             then the certified LP bound, then exact search on the remaining budget), or a \
             single engine: $(b,heuristics), $(b,lp), $(b,exact), $(b,brute).")
  in
  let setup =
    Arg.(
      value & opt float 0.0
      & info [ "setup" ] ~docv:"MS"
          ~doc:
            "Reconfiguration time per type switch (general rule): a machine cycling through \
             k >= 2 task types pays k switches per period.")
  in
  let deadline =
    Arg.(
      value & opt (some float) None
      & info [ "deadline" ] ~docv:"MS"
          ~doc:
            "Work budget as a deadline, mapped deterministically onto engine budgets \
             (node-equivalents) — not a wall clock, so results replay exactly.")
  in
  let node_budget =
    Arg.(
      value & opt (some int) None
      & info [ "node-budget" ] ~docv:"NODES"
          ~doc:"Work budget in node-equivalents (exclusive with --deadline).")
  in
  let certificate =
    Arg.(
      value & flag
      & info [ "certificate" ]
          ~doc:
            "Demand a certified lower bound: the LP stage runs even when the budget says to \
             skip it, and gaps are reported against the certified bound.")
  in
  let x_out =
    Arg.(
      value & opt int 0
      & info [ "inputs-for" ] ~docv:"X"
          ~doc:"Also report the raw products needed to output X finished products.")
  in
  let jobs =
    Arg.(
      value & opt int 1
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Domains for the exact stage's root subtrees (process-wide shared pool; the \
             outcome is bit-identical for any N, only wall time changes).")
  in
  let run file engine rule setup deadline node_budget certificate x_out jobs seed =
    let inst = Instance_io.read_file file in
    Printf.printf "instance: n=%d p=%d m=%d\n" (Instance.task_count inst)
      (Instance.type_count inst) (Instance.machines inst);
    let budget = budget_of ~cmd:"solve" deadline node_budget in
    if jobs < 1 then begin
      prerr_endline "mfopt solve: --jobs must be at least 1";
      exit 2
    end;
    let req =
      match
        Solver.make_request ~rule ~seed ~budget ~want_certificate:certificate ~setup inst
      with
      | Ok req -> req
      | Error e ->
        Printf.eprintf "mfopt solve: %s\n" (Solver.describe_request_error e);
        exit 2
    in
    let pool =
      if jobs > 1 then Some (Mf_parallel.Pool.shared ~domains:jobs) else None
    in
    let out =
      match engine with
      | `Auto -> Mf_solve.Portfolio.solve ?pool req
      | `Heuristics -> Mf_solve.Engine.heuristics req
      | `Lp -> Mf_solve.Engine.lp req
      | `Exact -> Mf_solve.Engine.exact ?pool req
      | `Brute -> Mf_solve.Engine.brute req
    in
    (match out.Solver.mapping with
    | Some mp -> print_solution inst "best" mp
    | None -> ());
    Printf.printf "status: %s (%s rule%s)\n"
      (Solver.status_to_string out.Solver.status)
      (Mapping.rule_name rule)
      (if setup > 0.0 then Printf.sprintf ", %.0fms setup per type switch" setup else "");
    (match out.Solver.lower_bound with
    | Some lb -> Printf.printf "certified lower bound: %.2f ms\n" lb
    | None -> ());
    let s = out.Solver.stats in
    Printf.printf "engines: %s   work: %d heuristic runs, %d LP pivots (%s path), %d nodes\n"
      (match out.Solver.engines with
      | [] -> "none"
      | es -> String.concat " -> " (List.map Solver.engine_name es))
      s.Solver.heuristic_runs s.Solver.lp_pivots
      (Solver.lp_path_name s.Solver.lp_path)
      s.Solver.exact_nodes;
    if x_out > 0 then
      match out.Solver.mapping with
      | Some mp ->
        List.iter
          (fun (src, count) ->
            Printf.printf "feed %d raw products at source task T%d to output %d products\n"
              count src x_out)
          (Products.inputs_needed inst mp ~x_out)
      | None -> ()
  in
  let doc = "Solve an instance through the unified solver (portfolio or a single engine)." in
  Cmd.v
    (Cmd.info "solve" ~doc)
    Term.(
      const run $ instance_arg $ engine $ rule_arg $ setup $ deadline $ node_budget $ certificate
      $ x_out $ jobs $ seed_arg)

(* ------------------------------------------------------------------ *)
(* exact                                                                *)
(* ------------------------------------------------------------------ *)

let exact_cmd =
  let setup =
    Arg.(
      value & opt float 0.0
      & info [ "setup" ] ~docv:"MS"
          ~doc:"Reconfiguration time per type switch (general rule only).")
  in
  let jobs =
    Arg.(
      value & opt int 1
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Worker domains for the root subtrees (default 1).  Results - period, mapping, \
             node counts, every counter - are bit-identical for any value.")
  in
  let node_budget =
    Arg.(
      value & opt int 20_000_000
      & info [ "node-budget" ] ~docv:"N"
          ~doc:"Total node budget, redistributed over root subtrees (default 20000000).")
  in
  let no_dominance =
    Arg.(
      value & flag
      & info [ "no-dominance" ]
          ~doc:"Disable the dominance table (default: automatic, on when same-type tasks \
                share identical failure rows).")
  in
  let no_symmetry =
    Arg.(value & flag & info [ "no-symmetry" ] ~doc:"Disable machine symmetry breaking.")
  in
  let lp_bound =
    Arg.(
      value & flag
      & info [ "lp-bound" ]
          ~doc:
            "Pre-compute the divisible-workload LP lower bound (rational-certified) and stop \
             the search as soon as the incumbent meets it.")
  in
  let no_node_lp =
    Arg.(
      value & flag
      & info [ "no-node-lp" ]
          ~doc:
            "Disable the per-node warm-started LP bound (default: automatic, on from 14 \
             tasks — the measured crossover).")
  in
  let run file rule setup jobs node_budget no_dominance no_symmetry lp_bound no_node_lp =
    if jobs < 1 then begin
      prerr_endline "mfopt exact: --jobs must be at least 1";
      exit 2
    end;
    let inst = Instance_io.read_file file in
    Printf.printf "instance: n=%d p=%d m=%d, rule %s%s\n" (Instance.task_count inst)
      (Instance.type_count inst) (Instance.machines inst) (Mapping.rule_name rule)
      (if setup > 0.0 then Printf.sprintf ", %.0fms setup per type switch" setup else "");
    let dominance = if no_dominance then Some false else None in
    let lower_bound =
      if not lp_bound then None
      else
        match Mf_lp.Splitting.solve inst with
        | Error e ->
          Printf.printf "       (LP bound unavailable: %s)\n" (Mf_lp.Splitting.describe_error e);
          None
        | Ok r ->
          Printf.printf "       LP lower bound %.2f ms (%s path)\n" r.Mf_lp.Splitting.period
            (match r.Mf_lp.Splitting.stats.Mf_lp.Mip.path with
            | `Float -> "float"
            | `Rational -> "rational");
          Some (Mf_solve.Engine.certified_lower_bound r)
    in
    let node_bound, nb_stats =
      if no_node_lp || Instance.task_count inst < Mf_solve.Engine.lp_bound_threshold then
        (None, fun () -> Mf_lp.Node_bound.zero_stats)
      else
        let factory, stats = Mf_solve.Engine.node_bound_factory ~rule inst in
        (Some factory, stats)
    in
    let pool = if jobs > 1 then Some (Mf_parallel.Pool.shared ~domains:jobs) else None in
    let t0 = Unix.gettimeofday () in
    match
      Mf_exact.Dfs.solve ~node_budget ~setup ?pool ?dominance ~symmetry:(not no_symmetry)
        ?lower_bound ?node_bound ~rule inst
    with
    | r ->
      let dt = Unix.gettimeofday () -. t0 in
      print_solution inst "exact" r.Mf_exact.Dfs.mapping;
      let s = r.Mf_exact.Dfs.stats in
      Printf.printf "       %s in %.2fs\n"
        (if r.Mf_exact.Dfs.optimal then "proved optimal" else "node budget exhausted")
        dt;
      Printf.printf
        "       nodes %d over %d root subtrees, incumbent final at node %d of its subtree\n"
        r.Mf_exact.Dfs.nodes s.Mf_exact.Dfs.root_subtrees s.Mf_exact.Dfs.best_at_node;
      Printf.printf "       prunes: %d bound, %d dominance (%d states), %d symmetry skips\n"
        s.Mf_exact.Dfs.bound_prunes s.Mf_exact.Dfs.dominance_prunes
        s.Mf_exact.Dfs.dominance_states s.Mf_exact.Dfs.symmetry_skips;
      if s.Mf_exact.Dfs.lp_solves > 0 then begin
        let module NB = Mf_lp.Node_bound in
        let o = nb_stats () in
        Printf.printf "       node LP: %d evaluations, %d prunes, %d no-goods\n"
          s.Mf_exact.Dfs.lp_solves s.Mf_exact.Dfs.lp_prunes s.Mf_exact.Dfs.nogood_records;
        Printf.printf
          "       oracle: %d solves (%d warm starts, %d fallbacks, %d repairs), %d reuses, \
           %d pivots, %d factorizations\n"
          o.NB.solves o.NB.warm_starts o.NB.fallbacks o.NB.repairs o.NB.reuses o.NB.pivots
          o.NB.factorizations
      end
    | exception Invalid_argument msg -> Printf.printf "exact solver unavailable: %s\n" msg
  in
  let doc = "Solve an instance exactly with the branch-and-bound engine." in
  Cmd.v
    (Cmd.info "exact" ~doc)
    Term.(
      const run $ instance_arg $ rule_arg $ setup $ jobs $ node_budget $ no_dominance
      $ no_symmetry $ lp_bound $ no_node_lp)

(* ------------------------------------------------------------------ *)
(* simulate                                                             *)
(* ------------------------------------------------------------------ *)

let simulate_cmd =
  let module Breakdown = Mf_sim.Breakdown in
  let heuristic =
    Arg.(
      value & opt heuristic_conv Registry.H4w
      & info [ "heuristic" ] ~docv:"H" ~doc:"Heuristic producing the mapping (default H4w).")
  in
  let horizon =
    Arg.(
      value & opt float 1.0e6
      & info [ "horizon" ] ~docv:"MS" ~doc:"Simulated time in ms (default 1e6).")
  in
  let trace =
    Arg.(value & flag & info [ "trace" ] ~doc:"Print the first 40 simulation events.")
  in
  let report =
    Arg.(value & flag & info [ "report" ] ~doc:"Print utilisation and loss statistics.")
  in
  let breakdowns_conv =
    let parse s =
      match String.split_on_char ':' s with
      | [ a; b ] | [ a; b; "" ] -> (
        match (float_of_string_opt a, float_of_string_opt b) with
        | Some mtbf, Some mttr -> Ok (mtbf, mttr, 0.0)
        | _ -> Error (`Msg "expected MTBF:MTTR[:WEAR] (numbers, in ms)"))
      | [ a; b; c ] -> (
        match (float_of_string_opt a, float_of_string_opt b, float_of_string_opt c) with
        | Some mtbf, Some mttr, Some wear -> Ok (mtbf, mttr, wear)
        | _ -> Error (`Msg "expected MTBF:MTTR[:WEAR] (numbers, in ms)"))
      | _ -> Error (`Msg "expected MTBF:MTTR[:WEAR]")
    in
    let print ppf (mtbf, mttr, wear) = Format.fprintf ppf "%g:%g:%g" mtbf mttr wear in
    Arg.conv (parse, print)
  in
  let breakdowns =
    Arg.(
      value & opt (some breakdowns_conv) None
      & info [ "breakdowns" ] ~docv:"MTBF:MTTR[:WEAR]"
          ~doc:
            "Enable the availability model: every machine gets mean time between \
             failures MTBF ms of busy time, mean repair time MTTR ms, and optional \
             history-based hazard scaling WEAR (failure rate grows by WEAR per unit \
             produced since the last repair).")
  in
  let crews =
    Arg.(
      value & opt (some int) None
      & info [ "crews" ] ~docv:"N"
          ~doc:"Repair crews (default: one per machine; queueing starts below that).")
  in
  let repair_queue =
    let queue_conv =
      Arg.conv
        ( (fun s ->
            match Breakdown.queue_of_string s with
            | Some q -> Ok q
            | None -> Error (`Msg "expected fifo or priority")),
          fun ppf q -> Format.pp_print_string ppf (Breakdown.queue_name q) )
    in
    Arg.(
      value & opt queue_conv Breakdown.Fifo
      & info [ "repair-queue" ] ~docv:"POLICY"
          ~doc:"Crew queueing policy when crews are scarce: fifo or priority \
                (most-loaded machine first).")
  in
  let remap =
    Arg.(
      value & flag
      & info [ "remap" ]
          ~doc:
            "Run the online re-mapper: migrate tasks off dead machines, refine \
             under the evaluation budget, restore the designed mapping after \
             repairs when it wins.")
  in
  let remap_budget =
    Arg.(
      value & opt int Mf_remap.Plan.default_budget
      & info [ "remap-budget" ] ~docv:"N"
          ~doc:"Evaluation budget per re-mapping decision (default 400).")
  in
  let run file heuristic horizon trace report seed breakdowns crews repair_queue remap
      remap_budget =
    let inst = Instance_io.read_file file in
    let mp = Registry.solve ~seed heuristic inst in
    let analytic = Period.throughput inst mp in
    (* Without --trace no listener is passed, so the simulator builds no
       events. *)
    let on_event =
      if not trace then None
      else
        let printed = ref 0 in
        Some
          (fun e ->
            if !printed < 40 then begin
              incr printed;
              print_endline (Mf_sim.Event.to_string e)
            end)
    in
    Printf.printf "mapping (%s): analytic throughput %.6g /ms, period %.2f ms\n"
      (Registry.name heuristic) analytic (Period.period inst mp);
    let r, model =
      match breakdowns with
      | None -> (Mf_sim.Desim.run ~horizon ~seed ?on_event inst mp, None)
      | Some (mtbf, mttr, wear) ->
        let bd =
          Breakdown.uniform ~machines:(Instance.machines inst) ~mtbf ~mttr ~wear
            ?crews ~queue:repair_queue ()
        in
        let adjusted = Mf_sim.Metrics.adjusted_throughput inst mp bd in
        Printf.printf
          "breakdowns: mtbf %g ms, mttr %g ms, wear %g -> availability-adjusted \
           throughput %.6g /ms\n"
          mtbf mttr wear adjusted;
        let r =
          if remap then
            Mf_remap.Online.simulate ~budget:remap_budget ~breakdowns:bd ~horizon ~seed
              ?on_event inst mp
          else Mf_sim.Desim.run ~breakdowns:bd ~horizon ~seed ?on_event inst mp
        in
        (r, Some bd)
    in
    let reference =
      match model with
      | None -> analytic
      | Some bd -> Mf_sim.Metrics.adjusted_throughput inst mp bd
    in
    Printf.printf "simulated: %d outputs in a %.0f ms window -> %.6g /ms (%.2f%% off)\n"
      r.Mf_sim.Desim.outputs r.Mf_sim.Desim.window r.Mf_sim.Desim.throughput
      (100.0 *. Float.abs (r.Mf_sim.Desim.throughput -. reference) /. reference);
    Printf.printf "raw products consumed: %d; per-task losses:" r.Mf_sim.Desim.consumed;
    Array.iteri (fun i l -> Printf.printf " T%d:%d" i l) r.Mf_sim.Desim.lost;
    print_newline ();
    (match model with
    | Some _ when remap ->
      Printf.printf "re-maps committed: %d; final mapping:" r.Mf_sim.Desim.remaps;
      Array.iter (Printf.printf " %d") r.Mf_sim.Desim.final_mapping;
      print_newline ()
    | _ -> ());
    if report then begin
      match model with
      | None -> print_string (Mf_sim.Metrics.report inst mp r)
      | Some bd ->
        print_string (Mf_sim.Metrics.report inst mp r);
        print_string (Mf_sim.Metrics.dynamic_report ~model:bd inst mp r)
    end
  in
  let doc = "Simulate a mapping with the discrete-event engine." in
  Cmd.v
    (Cmd.info "simulate" ~doc)
    Term.(
      const run $ instance_arg $ heuristic $ horizon $ trace $ report $ seed_arg
      $ breakdowns $ crews $ repair_queue $ remap $ remap_budget)

(* ------------------------------------------------------------------ *)
(* experiment                                                           *)
(* ------------------------------------------------------------------ *)

let experiment_cmd =
  let figure =
    let doc = "Figure to regenerate: fig5 .. fig12, or the dynamic breakdown experiment." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FIGURE" ~doc)
  in
  let replicates =
    Arg.(
      value & opt (some int) None
      & info [ "replicates" ] ~docv:"R" ~doc:"Replicates per point (default: the paper's).")
  in
  let csv = Arg.(value & flag & info [ "csv" ] ~doc:"CSV output instead of a table.") in
  let jobs =
    Arg.(
      value
      & opt int (Mf_parallel.Pool.default_jobs ())
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Worker domains for the replicate grid (default: the recommended domain count; \
             1 forces serial execution).  Figures are byte-identical for any value.")
  in
  let run figure replicates csv jobs =
    if jobs < 1 then begin
      Printf.eprintf "--jobs must be at least 1\n";
      exit 2
    end;
    let pool = if jobs > 1 then Some (Mf_parallel.Pool.shared ~domains:jobs) else None in
    match List.assoc_opt figure (Mf_experiments.Figures.all ?replicates ?pool ()) with
    | None ->
      Printf.eprintf "unknown figure %s (fig5..fig12, dynamic)\n" figure;
      exit 2
    | Some f ->
      let fig = f () in
      if csv then Format.printf "@[<v>%a@]@." Mf_experiments.Report.pp_csv fig
      else print_string (Mf_experiments.Report.to_string fig)
  in
  let doc = "Regenerate one of the paper's figures." in
  Cmd.v (Cmd.info "experiment" ~doc) Term.(const run $ figure $ replicates $ csv $ jobs)

(* ------------------------------------------------------------------ *)
(* lp                                                                   *)
(* ------------------------------------------------------------------ *)

let lp_cmd =
  let mip =
    Arg.(
      value & flag
      & info [ "mip" ]
          ~doc:"Also solve the paper's MIP (9) by branch-and-bound (small instances only).")
  in
  let node_budget =
    Arg.(
      value & opt int 20_000
      & info [ "node-budget" ] ~docv:"N"
          ~doc:"Branch-and-bound node budget for --mip (default 20000).")
  in
  let run file mip node_budget =
    let inst = Instance_io.read_file file in
    (match Mf_lp.Splitting.solve inst with
    | Error e ->
      Printf.eprintf "LP failed: %s\n" (Mf_lp.Splitting.describe_error e);
      exit 1
    | Ok r ->
      Printf.printf "divisible-workload LP bound: %.2f ms period (%.6f /ms)%s\n"
        r.Mf_lp.Splitting.period
        (1.0 /. r.Mf_lp.Splitting.period)
        (match r.Mf_lp.Splitting.stats.Mf_lp.Mip.path with
        | `Float -> ""
        | `Rational -> "  [rational-certified fallback]");
      (let s = r.Mf_lp.Splitting.stats in
       Printf.printf
         "       (%d pivots%s; basis reuse: %d eta updates / %d factorizations, %d forced \
          refactorizations)\n"
         s.Mf_lp.Mip.float_iterations
         (if s.Mf_lp.Mip.exact_iterations > 0 then
            Printf.sprintf " + %d exact" s.Mf_lp.Mip.exact_iterations
          else "")
         s.Mf_lp.Mip.eta_updates s.Mf_lp.Mip.factorizations s.Mf_lp.Mip.refactorizations);
      (match Mf_lp.Splitting.round inst r with
      | Ok (mp, _rounded) -> print_solution inst "round" mp
      | Error e ->
        Printf.printf "round: skipped — %s\n" (Mf_lp.Splitting.describe_round_error e)));
    if mip then begin
      let res = Mf_lp.Micro_mip.solve ~node_budget inst in
      match (res.Mf_lp.Micro_mip.mapping, res.Mf_lp.Micro_mip.period) with
      | Some mp, Some _ ->
        print_solution inst "MIP" mp;
        Printf.printf "       (%s, %d branch-and-bound nodes)\n"
          (match res.Mf_lp.Micro_mip.status with
          | Mf_lp.Micro_mip.Optimal -> "proved optimal"
          | Mf_lp.Micro_mip.Feasible -> "node budget exhausted, best incumbent"
          | _ -> "unexpected status")
          res.Mf_lp.Micro_mip.nodes
      | _ ->
        Printf.printf "MIP: no integral solution within the node budget (%d nodes)\n"
          res.Mf_lp.Micro_mip.nodes
    end
  in
  let doc = "LP bounds: the divisible-workload relaxation and the paper's MIP." in
  Cmd.v (Cmd.info "lp" ~doc) Term.(const run $ instance_arg $ mip $ node_budget)

(* ------------------------------------------------------------------ *)
(* client (talk to a running mfoptd)                                    *)
(* ------------------------------------------------------------------ *)

let client_cmd =
  let module Solver = Mf_solve.Solver in
  let module Protocol = Mf_daemon.Protocol in
  let socket =
    Arg.(
      required
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH" ~doc:"Unix socket of a running $(b,mfoptd).")
  in
  let instance =
    Arg.(
      value & pos 0 (some file) None
      & info [] ~docv:"INSTANCE" ~doc:"Instance file to submit (omit with $(b,--raw)).")
  in
  let id =
    Arg.(value & opt string "r0" & info [ "id" ] ~docv:"ID" ~doc:"Request id for the wire.")
  in
  let setup = Arg.(value & opt float 0.0 & info [ "setup" ] ~docv:"MS" ~doc:"Setup time.") in
  let deadline =
    Arg.(
      value & opt (some float) None
      & info [ "deadline" ] ~docv:"MS" ~doc:"Deadline budget (node-equivalents, not wall clock).")
  in
  let node_budget =
    Arg.(
      value & opt (some int) None
      & info [ "node-budget" ] ~docv:"NODES" ~doc:"Node budget (exclusive with --deadline).")
  in
  let certificate =
    Arg.(value & flag & info [ "certificate" ] ~doc:"Demand a certified lower bound.")
  in
  let cancel_after =
    Arg.(
      value & opt (some float) None
      & info [ "cancel-after-ms" ] ~docv:"MS"
          ~doc:"Send CANCEL for the request this many milliseconds after submitting it.")
  in
  let raw =
    Arg.(
      value & opt (some string) None
      & info [ "raw" ] ~docv:"LINE"
          ~doc:"Send this verbatim line instead of a SOLVE and print the one response.")
  in
  let run socket instance id rule setup deadline node_budget certificate cancel_after raw seed
      =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    (try Unix.connect fd (Unix.ADDR_UNIX socket)
     with Unix.Unix_error (e, _, _) ->
       Printf.eprintf "mfopt client: cannot connect to %s: %s\n" socket (Unix.error_message e);
       exit 2);
    let ic = Unix.in_channel_of_descr fd in
    let oc = Unix.out_channel_of_descr fd in
    let send s =
      output_string oc s;
      flush oc
    in
    let is_final line =
      (* the response that answers our request (or the raw line) *)
      match String.split_on_char ' ' line with
      | "OK" :: rid :: _ | "CANCELLED" :: rid :: _ -> rid = id
      | "ERR" :: _ -> true
      | ("STATS" | "BYE") :: _ -> true
      | "CANCELOK" :: _ -> false
      | _ -> true
    in
    let exit_code line =
      match String.split_on_char ' ' line with "ERR" :: _ -> 1 | _ -> 0
    in
    let rec read_until_final () =
      match input_line ic with
      | line ->
        print_endline line;
        if is_final line then exit_code line else read_until_final ()
      | exception End_of_file ->
        prerr_endline "mfopt client: connection closed before a response";
        1
    in
    let code =
      match raw with
      | Some line ->
        send (line ^ "\n");
        read_until_final ()
      | None -> (
        match instance with
        | None ->
          prerr_endline "mfopt client: INSTANCE required unless --raw is given";
          2
        | Some file -> (
          let inst = Instance_io.read_file file in
          let budget = budget_of ~cmd:"client" deadline node_budget in
          match
            Solver.make_request ~rule ~seed ~budget ~want_certificate:certificate ~setup inst
          with
          | Error e ->
            Printf.eprintf "mfopt client: %s\n" (Solver.describe_request_error e);
            2
          | Ok req ->
            send (Protocol.render_solve ~id req);
            (match cancel_after with
            | Some ms ->
              Unix.sleepf (ms /. 1000.0);
              send (Printf.sprintf "CANCEL %s\n" id)
            | None -> ());
            read_until_final ()))
    in
    (try Unix.close fd with Unix.Unix_error _ -> ());
    exit code
  in
  let doc = "Submit a request to a running $(b,mfoptd) over its Unix socket." in
  Cmd.v
    (Cmd.info "client" ~doc)
    Term.(
      const run $ socket $ instance $ id $ rule_arg $ setup $ deadline $ node_budget $ certificate
      $ cancel_after $ raw $ seed_arg)

let () =
  let doc = "Throughput optimization for micro-factories subject to failures." in
  let info = Cmd.info "mfopt" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ generate_cmd; solve_cmd; exact_cmd; simulate_cmd; experiment_cmd; lp_cmd; client_cmd ]))
