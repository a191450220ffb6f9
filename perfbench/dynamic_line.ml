(* dynamic-line: closed loop over short {!Mf_remap.Online.simulate} runs
   on two breakdown scenarios.

   (a) the BENCH_dynamic balanced 56-task chain on 8 machines, machine 0
       failing (mtbf 48 periods, mttr 16, one crew) — the recovery
       scenario;
   (b) a random in-tree (n=40, p=4, m=12) under its H4w mapping, every
       machine failing (mtbf 50 periods, mttr 5, two crews) — about 100
       landed re-maps per run.

   The seed draws the simulation seeds; a pass runs [a_runs] simulations
   of (a) over [a_periods] periods and [b_runs] of (b) over [b_periods],
   and every pass replays the same seeds, so each pass must reproduce the
   first bit for bit.  Runs are short (20-40 ms) so that a run of the
   benchmark repeats each one a few dozen times. *)

open Common
module Desim = Mf_sim.Desim
module Breakdown = Mf_sim.Breakdown
module Online = Mf_remap.Online

let a_runs = 32
let a_periods = 1024.0
let b_runs = 4
let b_periods = 256.0

type scenario = {
  label : string;
  inst : Instance.t;
  mp : Mapping.t;
  period : float;
  bd : Breakdown.t;
  periods : float;  (** simulated horizon, in periods *)
}

let scenario_a () =
  let n = 56 and m = 8 in
  let inst =
    Instance.create
      ~workflow:(Workflow.chain ~types:(Array.make n 0))
      ~machines:m ~w:(Array.make_matrix n m 100.0) ~f:(Array.make_matrix n m 0.0)
  in
  let mp = Mapping.of_array inst (Array.init n (fun i -> i mod m)) in
  let p = Period.period inst mp in
  let laws =
    Array.init m (fun u ->
        if u = 0 then { Breakdown.mtbf = 48.0 *. p; mttr = 16.0 *. p; wear = 0.0 }
        else Breakdown.immortal)
  in
  { label = "a"; inst; mp; period = p; bd = Breakdown.make ~crews:1 laws; periods = a_periods }

let scenario_b () =
  let inst =
    Mf_workload.Gen.in_tree (Rng.create 7) (Mf_workload.Gen.default ~tasks:40 ~types:4 ~machines:12)
  in
  let mp = Mf_heuristics.H4_family.h4w inst in
  let p = Period.period inst mp in
  let bd = Breakdown.uniform ~machines:12 ~mtbf:(50.0 *. p) ~mttr:(5.0 *. p) ~crews:2 () in
  { label = "b"; inst; mp; period = p; bd; periods = b_periods }

let simulate ?on_event sc seed =
  Online.simulate ~breakdowns:sc.bd ~horizon:(sc.period *. sc.periods) ~seed ?on_event
    sc.inst sc.mp

(* Normalized throughput x = tp * p (1.0 = failure-free speed). *)
let norm_x sc (r : Desim.result) =
  sc.period *. float_of_int r.Desim.outputs /. r.Desim.window

let recovery sc r =
  let avail = Breakdown.availability sc.bd.Breakdown.laws.(0) in
  (norm_x sc r -. avail) /. (1.0 -. avail)

let check_result sc seed (r : Desim.result) =
  let what = Printf.sprintf "dynamic %s seed %d" sc.label seed in
  check (r.Desim.outputs > 0 && r.Desim.remaps > 0) (what ^ ": no output or no re-map");
  let m = Instance.machines sc.inst in
  check
    (Array.for_all (fun u -> u >= 0 && u < m) r.Desim.final_mapping)
    (what ^ ": final mapping out of range")

(* Mean recovery over the scenario (a) runs of one pass.  A single
   1024-period run can read under 0.8; the mean over the pass must reach
   the 0.8 that BENCH_dynamic gates. *)
let pass_recovery jobs rs =
  let rec_a =
    List.filter_map
      (fun ((sc, _), r) -> if sc.label = "a" then Some (recovery sc r) else None)
      (List.combine jobs rs)
  in
  let x = mean rec_a in
  check (x >= 0.8) (Printf.sprintf "dynamic a: mean recovery %.4f < 0.8" x);
  x

(* The traced run of one simulation: {!Desim.run} with a timed
   {!Online.remapper} and an event counter — the same decisions
   [Online.simulate] wires in. *)
let traced sc seed =
  let rm = Online.remapper ~original:sc.mp sc.inst in
  let remapper ~time ~down ~mapping change =
    let d = Layers.span "remap" (fun () -> rm ~time ~down ~mapping change) in
    (match d with
    | Some d ->
      Layers.add "remap.decisions" 1.0;
      Layers.add "remap.evals" (float_of_int d.Desim.evals)
    | None -> ());
    d
  in
  let events = ref 0 in
  let r =
    Layers.span "desim" (fun () ->
        Desim.run ~breakdowns:sc.bd ~remapper ~horizon:(sc.period *. sc.periods) ~seed
          ~on_event:(fun _ -> incr events)
          sc.inst sc.mp)
  in
  Layers.add "desim.events" (float_of_int !events);
  Layers.add "remap.landed" (float_of_int r.Desim.remaps);
  r

let run ~seed ~seconds ~trace =
  let setups = ref [] in
  let set_up () =
    let t0 = now () in
    let rng = Rng.create seed in
    let a = scenario_a () and b = scenario_b () in
    let jobs =
      List.init a_runs (fun _ -> (a, Rng.int rng 1_000_000))
      @ List.init b_runs (fun _ -> (b, Rng.int rng 1_000_000))
    in
    (* warm-up: a 32-period run of each scenario *)
    List.iter
      (fun sc ->
        ignore
          (Online.simulate ~breakdowns:sc.bd ~horizon:(sc.period *. 32.0) ~seed:0 sc.inst sc.mp))
      [ a; b ];
    setups := (now () -. t0) :: !setups;
    (jobs, [ (a.inst, a.mp); (b.inst, b.mp) ])
  in
  let jobs, scs = set_up () in
  let pass () =
    let t0 = now () in
    let rs = List.map (fun (sc, s) -> timed (fun () -> simulate sc s)) jobs in
    (rs, now () -. t0)
  in
  if not trace then begin
    (* Whole passes until the run length is used up, each followed by one
       more set-up; every simulation keeps its fastest repeat (see
       Solver_mix.run). *)
    let t_start = now () and passes = ref 0 and first = ref None in
    let best = Array.make (List.length jobs) infinity in
    while !passes = 0 || now () -. t_start < float_of_int seconds do
      let rs, _ = pass () in
      incr passes;
      List.iteri
        (fun i ((sc, s), (r, t)) ->
          incr attempted;
          check_result sc s r;
          best.(i) <- Float.min best.(i) t)
        (List.combine jobs rs);
      (match !first with
      | None -> first := Some (List.map fst rs)
      | Some f ->
        List.iter2
          (fun (sc, s) (a, (b, _)) ->
            check (compare a b = 0)
              (Printf.sprintf "dynamic %s seed %d: replay differs" sc.label s))
          jobs (List.combine f rs));
      ignore (set_up ())
    done;
    let rec_a = pass_recovery jobs (Option.get !first) in
    let best = Array.to_list best in
    report "setup_s" "s" (median !setups);
    report "wall_s" "s" (sum best);
    report "rss_peak_mb" "MB" (rss_peak_mb ());
    report "p50_ms" "ms" (1000.0 *. median best);
    report "miss_p50_ms" "ms" (1000.0 *. median best);
    report "overrun_ratio" "ratio" 1.0;
    report "overrun_p50" "ratio" 1.0;
    report "period_over_bound" "ratio" 1.0;
    report "slo_frac" "frac" 1.0;
    report "recovery" "frac" rec_a;
    Printf.printf "  (%d passes of %d simulations)\n" !passes (List.length jobs)
  end
  else begin
    (* traced runs between two untraced reference passes *)
    let untraced, w1 = pass () in
    let tr, traced_wall = timed (fun () -> List.map (fun (sc, s) -> traced sc s) jobs) in
    let _, w2 = pass () in
    let untraced_wall = 0.5 *. (w1 +. w2) in
    let consistent = ref true in
    List.iter2
      (fun ((sc, s), (u, _)) t ->
        incr attempted;
        check_result sc s u;
        if compare u t <> 0 then begin
          consistent := false;
          Printf.eprintf "perfbench: traced dynamic %s seed %d differs\n%!" sc.label s
        end)
      (List.combine jobs untraced) tr;
    ignore (pass_recovery jobs (List.map fst untraced));
    Layers.add "trace.consistent" (if !consistent then 1.0 else 0.0);
    Layers.add "trace.wall.s" traced_wall;
    Layers.add "trace.untraced_wall.s" untraced_wall;
    Micro.try_move_swap scs
  end
