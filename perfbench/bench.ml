(* perfbench: one workload run of the whole-stack benchmark.

   bench.exe --workload NAME --seed N --seconds S --trace 0|1
             --mfoptd PATH --run-dir DIR

   With --trace 0 the run measures the end-to-end metrics with no
   tracing; with --trace 1 it sends the same inputs through the layers'
   public functions with timing wrappers and reports the per-layer
   metrics.  The last line of standard output is the result object. *)

open Common

let usage () =
  prerr_endline
    "usage: bench.exe --workload exact-close|deadline-mix|daemon-storm|dynamic-line --seed N \
     --seconds S --trace 0|1 [--mfoptd PATH] [--run-dir DIR]";
  exit 2

(* Every per-layer metric, read from the traced run's accumulators;
   layers a workload does not exercise read 0. *)
let report_layers () =
  let g = Layers.get and ms name = 1000.0 *. Layers.secs name in
  let per a b = if b = 0.0 then 0.0 else a /. b in
  let wall = g "trace.wall.s" and untraced = g "trace.untraced_wall.s" in
  let covered =
    List.fold_left
      (fun acc name -> acc +. Layers.secs name)
      0.0
      [
        "canon"; "heuristics"; "splitting"; "dfs"; "protocol.parse"; "cache.key"; "cache.find";
        "portfolio.miss"; "protocol.render"; "desim";
      ]
  in
  let other = wall -. covered in
  let node_lp_ms = 1000.0 *. g "dfs.node_lp.s" in
  let desim_self_ms = ms "desim" -. ms "remap" in
  let consistent = g "trace.consistent" = 1.0 in
  let accounted = other < 0.1 *. wall in
  check consistent "traced run disagrees with the untraced one";
  check accounted
    (Printf.sprintf "time accounting: other %.1f ms is over 10%% of the traced %.1f ms"
       (1000.0 *. other) (1000.0 *. wall));
  List.iter
    (fun (name, unit, v) -> report name unit v)
    [
      ("canon.us", "us", Layers.us_per_call "canon");
      ("cache.key_us", "us", Layers.us_per_call "cache.key");
      ("cache.find_us", "us", Layers.us_per_call "cache.find");
      ("cache.hit_rate", "frac", g "cache.hit_rate");
      ("cache.evictions", "count", g "cache.evictions");
      ("protocol.parse_us", "us", Layers.us_per_call "protocol.parse");
      ("protocol.render_us", "us", Layers.us_per_call "protocol.render");
      ("server.wire_hit_p50_ms", "ms", g "server.wire_hit_p50_ms");
      ("server.wire_miss_p50_ms", "ms", g "server.wire_miss_p50_ms");
      ("server.inproc_hit_p50_ms", "ms", g "server.inproc_hit_p50_ms");
      ("server.inproc_miss_p50_ms", "ms", g "server.inproc_miss_p50_ms");
      ("server.overhead_hit_p50_ms", "ms", g "server.overhead_hit_p50_ms");
      ("server.overhead_miss_p50_ms", "ms", g "server.overhead_miss_p50_ms");
      ("storm.p99_ms", "ms", g "storm.p99_ms");
      ("storm.gen_late_max_ms", "ms", g "storm.gen_late_max_ms");
      ("responses.ok", "count", g "responses.ok");
      ("responses.err", "count", g "responses.err");
      ("responses.cancelled", "count", g "responses.cancelled");
      ("portfolio.miss_ms", "ms", per (ms "portfolio.miss") (Layers.calls "portfolio.miss"));
      ("heuristics.ms", "ms", ms "heuristics");
      ("splitting.ms", "ms", ms "splitting");
      ("splitting.pivots", "count", g "splitting.pivots");
      ("splitting.factorizations", "count", g "splitting.factorizations");
      ("splitting.refactorizations", "count", g "splitting.refactorizations");
      ("splitting.eta_updates", "count", g "splitting.eta_updates");
      ("dfs.ms", "ms", ms "dfs");
      ("dfs.self_ms", "ms", ms "dfs" -. node_lp_ms);
      ("dfs.nodes", "count", g "dfs.nodes");
      ("dfs.bound_prunes", "count", g "dfs.bound_prunes");
      ("dfs.dominance_prunes", "count", g "dfs.dominance_prunes");
      ("dfs.lp_prunes", "count", g "dfs.lp_prunes");
      ("dfs.symmetry_skips", "count", g "dfs.symmetry_skips");
      ("dfs.root_subtrees", "count", g "dfs.root_subtrees");
      ("node_lp.calls", "count", float_of_int !Stages.node_lp_calls);
      ("node_lp.ms", "ms", node_lp_ms);
      ("node_lp.us_per_call", "us", per (1e3 *. node_lp_ms) (float_of_int !Stages.node_lp_calls));
      ("node_lp.solves", "count", g "node_lp.solves");
      ("node_lp.reuses", "count", g "node_lp.reuses");
      ("node_lp.warm_starts", "count", g "node_lp.warm_starts");
      ("node_lp.pivots", "count", g "node_lp.pivots");
      ("node_lp.factorizations", "count", g "node_lp.factorizations");
      ( "node_lp.pivots_per_factorization",
        "ratio",
        per (g "node_lp.pivots") (g "node_lp.factorizations") );
      ("ledger.allowance", "node-equiv", g "ledger.allowance");
      ("ledger.us_per_node_equiv", "us", per (1e6 *. untraced) (g "ledger.spent"));
      ("desim.events", "count", g "desim.events");
      ("desim.self_ms", "ms", desim_self_ms);
      ("desim.ns_per_event", "ns", per (1e6 *. desim_self_ms) (g "desim.events"));
      ("remap.calls", "count", Layers.calls "remap");
      ("remap.decisions", "count", g "remap.decisions");
      ("remap.landed", "count", g "remap.landed");
      ("remap.evals", "count", g "remap.evals");
      ("remap.ms", "ms", ms "remap");
      ("remap.us_per_call", "us", Layers.us_per_call "remap");
      ("eval.try_assign_ns", "ns", g "eval.try_assign_ns");
      ("eval.try_move_ns", "ns", g "eval.try_move_ns");
      ("eval.try_swap_ns", "ns", g "eval.try_swap_ns");
      ("other.ms", "ms", 1000.0 *. other);
      ("other.frac", "frac", per other wall);
      ("trace.wall_ms", "ms", 1000.0 *. wall);
      ("trace.untraced_wall_ms", "ms", 1000.0 *. untraced);
      ("trace.overhead_frac", "frac", per wall untraced -. 1.0);
      ("trace.valid", "bool", if consistent && accounted && g "trace.flagged" = 0.0 then 1.0 else 0.0);
    ]

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0 and trace = ref (-1) in
  let mfoptd = ref "" and run_dir = ref "." in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string v; parse rest
    | "--seconds" :: v :: rest -> seconds := int_of_string v; parse rest
    | "--trace" :: v :: rest -> trace := int_of_string v; parse rest
    | "--mfoptd" :: v :: rest -> mfoptd := v; parse rest
    | "--run-dir" :: v :: rest -> run_dir := v; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  if !seed < 0 || !seconds < 1 || (!trace <> 0 && !trace <> 1) then usage ();
  let trace = !trace = 1 and seed = !seed and seconds = !seconds in
  (match !workload with
  | "exact-close" -> Solver_mix.run Solver_mix.Exact_close ~seed ~seconds ~trace
  | "deadline-mix" -> Solver_mix.run Solver_mix.Deadline_mix ~seed ~seconds ~trace
  | "daemon-storm" ->
    if !mfoptd = "" then usage ();
    Daemon_storm.run ~mfoptd:!mfoptd ~run_dir:!run_dir ~seed ~seconds ~trace
  | "dynamic-line" -> Dynamic_line.run ~seed ~seconds ~trace
  | _ -> usage ());
  if trace then report_layers ();
  print_result ()
