(* LP bounds: solve the paper's MIP (9) with the built-in branch-and-bound
   on a small instance, check it against the exact search, then quantify
   the future-work idea (divisible task workloads) with the splitting LP.
   Exits 1 when the MIP and the exact search disagree on the optimum.

   Run with: dune exec examples/lp_bounds.exe *)

module Instance = Mf_core.Instance
module Period = Mf_core.Period
module Registry = Mf_heuristics.Registry
module Gen = Mf_workload.Gen
module Rng = Mf_prng.Rng

let () =
  let inst = Gen.chain (Rng.create 2024) (Gen.default ~tasks:5 ~types:2 ~machines:3) in
  Printf.printf "instance: n=%d p=%d m=%d\n\n" (Instance.task_count inst)
    (Instance.type_count inst) (Instance.machines inst);

  (* 1. The paper's MIP, solved exactly by branch-and-bound over simplex
     relaxations. *)
  let mip = Mf_lp.Micro_mip.solve inst in
  (match (mip.Mf_lp.Micro_mip.period, mip.Mf_lp.Micro_mip.k) with
  | Some period, Some k ->
    Printf.printf "MIP (9): optimal specialized period %.2f ms (LP objective K=%.2f)\n" period k;
    Printf.printf "         solved in %d branch-and-bound nodes\n" mip.Mf_lp.Micro_mip.nodes
  | _ -> Printf.printf "MIP did not solve\n");

  (* 2. Cross-check with the combinatorial exact solver. *)
  let dfs = Mf_exact.Dfs.specialized inst in
  Printf.printf "DFS:     optimal specialized period %.2f ms (%d nodes)\n" dfs.Mf_exact.Dfs.period
    dfs.Mf_exact.Dfs.nodes;
  (match mip.Mf_lp.Micro_mip.period with
  | Some period
    when Float.abs (period -. dfs.Mf_exact.Dfs.period) <= 1e-9 *. dfs.Mf_exact.Dfs.period ->
    ()
  | _ ->
    prerr_endline "lp_bounds: MIP (9) and DFS disagree on the optimal period";
    exit 1);

  (* 3. Heuristic for scale. *)
  let h4w = Registry.solve Registry.H4w inst in
  Printf.printf "H4w:     heuristic period %.2f ms\n\n" (Period.period inst h4w);

  (* 4. Future work: divisible workloads.  The LP bound shows how much
     throughput is left on the table by unsplittable tasks. *)
  let lp =
    match Mf_lp.Splitting.solve inst with
    | Ok r -> r
    | Error e -> failwith (Mf_lp.Splitting.describe_error e)
  in
  Printf.printf "divisible-workload LP bound: %.2f ms (%s path)\n" lp.Mf_lp.Splitting.period
    (match lp.Mf_lp.Splitting.stats.Mf_lp.Mip.path with
    | `Float -> "float"
    | `Rational -> "rational-certified");
  Printf.printf "throughput headroom vs exact: %.1f%%\n"
    (100.0 *. (dfs.Mf_exact.Dfs.period -. lp.Mf_lp.Splitting.period) /. dfs.Mf_exact.Dfs.period);
  Printf.printf "\nshares of each task per machine (rows: tasks, columns: machines):\n";
  Array.iteri
    (fun i row ->
      Printf.printf "  T%d:" i;
      Array.iter (fun s -> Printf.printf " %5.2f" s) row;
      print_newline ())
    lp.Mf_lp.Splitting.shares;
  let mp, rounded = Mf_lp.Splitting.round_exn inst lp in
  Printf.printf "\nrounded back to a specialized mapping: period %.2f ms (%s)\n" rounded
    (Format.asprintf "%a" Mf_core.Mapping.pp mp)
