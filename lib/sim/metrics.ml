module Instance = Mf_core.Instance
module Mapping = Mf_core.Mapping

type machine_stats = { machine : int; utilisation : float; executions : int }

let machine_stats inst mp (r : Desim.result) =
  List.map
    (fun u ->
      let executions =
        List.fold_left (fun acc i -> acc + r.Desim.executions.(i)) 0 (Mapping.tasks_on mp ~u)
      in
      { machine = u; utilisation = r.Desim.busy.(u) /. r.Desim.horizon; executions })
    (List.init (Instance.machines inst) Fun.id)

let bottleneck inst mp r =
  let stats = machine_stats inst mp r in
  let best =
    List.fold_left
      (fun acc s ->
        match acc with
        | Some b when b.utilisation >= s.utilisation -> acc
        | _ -> Some s)
      None stats
  in
  match best with Some s -> s.machine | None -> 0

let loss_summary inst mp r =
  List.map
    (fun i ->
      (* measured_loss_rate is nan for a task that never executed (0/0 has
         no empirical estimate); surface that as None so downstream
         arithmetic and rendering never meet a silent nan. *)
      let empirical =
        if r.Desim.executions.(i) = 0 then None
        else Some (Desim.measured_loss_rate r ~task:i)
      in
      (i, empirical, Instance.f inst i (Mapping.machine mp i)))
    (List.init (Instance.task_count inst) Fun.id)

let measured_availability (r : Desim.result) =
  Array.map (fun d -> 1.0 -. (d /. r.Desim.horizon)) r.Desim.downtime

let adjusted_throughput inst mp model =
  let loads = Mf_core.Period.machine_periods inst mp in
  let m = Instance.machines inst in
  if Array.length model.Breakdown.laws <> m then
    invalid_arg "Metrics.adjusted_throughput: model machine count mismatch";
  let best = ref infinity in
  for u = 0 to m - 1 do
    if loads.(u) > 0.0 then
      best := Float.min !best (Breakdown.availability model.Breakdown.laws.(u) /. loads.(u))
  done;
  if !best = infinity then 0.0 else !best

let lost_per_breakdown inst mp (r : Desim.result) =
  let total = Array.fold_left ( + ) 0 r.Desim.breakdowns in
  if total = 0 then None
  else
    let p = Mf_core.Period.period inst mp in
    let expected = if p > 0.0 then r.Desim.window /. p else 0.0 in
    Some ((expected -. float_of_int r.Desim.outputs) /. float_of_int total)

let remap_latency_histogram (r : Desim.result) =
  let buckets = 8 in
  let ls = r.Desim.remap_latencies in
  if Array.length ls = 0 then []
  else begin
    let hi = Array.fold_left Float.max 0.0 ls in
    (* one flat bucket when every latency is identical (or zero) *)
    let width = if hi > 0.0 then hi /. float_of_int buckets else 1.0 in
    let counts = Array.make buckets 0 in
    Array.iter
      (fun l ->
        let b = min (buckets - 1) (int_of_float (l /. width)) in
        counts.(b) <- counts.(b) + 1)
      ls;
    List.init buckets (fun b ->
        (width *. float_of_int b, width *. float_of_int (b + 1), counts.(b)))
  end

let report inst mp r =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf "simulation over %.0f time units (window %.0f): %d outputs, %.6g /unit\n"
       r.Desim.horizon r.Desim.window r.Desim.outputs r.Desim.throughput);
  Buffer.add_string buf
    (Printf.sprintf "raw products consumed: %d\n" r.Desim.consumed);
  Buffer.add_string buf "machines:\n";
  List.iter
    (fun s ->
      Buffer.add_string buf
        (Printf.sprintf "  M%d: utilisation %5.1f%%, %d executions%s\n" s.machine
           (100.0 *. s.utilisation) s.executions
           (if s.machine = bottleneck inst mp r then "  <- bottleneck" else "")))
    (machine_stats inst mp r);
  Buffer.add_string buf "tasks (empirical vs configured failure rate):\n";
  List.iter
    (fun (i, empirical, configured) ->
      Buffer.add_string buf
        (Printf.sprintf "  T%d: %s vs %.4f\n" i
           (match empirical with
           | None -> "n/a"
           | Some rate -> Printf.sprintf "%.4f" rate)
           configured))
    (loss_summary inst mp r);
  Buffer.contents buf

let dynamic_report ~model inst mp (r : Desim.result) =
  let buf = Buffer.create 512 in
  let total_breakdowns = Array.fold_left ( + ) 0 r.Desim.breakdowns in
  Buffer.add_string buf
    (Printf.sprintf "dynamics: %d breakdowns, %d re-maps\n" total_breakdowns
       r.Desim.remaps);
  let avail = measured_availability r in
  Array.iteri
    (fun u a ->
      if r.Desim.breakdowns.(u) > 0 || r.Desim.downtime.(u) > 0.0 then
        Buffer.add_string buf
          (Printf.sprintf "  M%d: %d breakdowns, down %.0f (availability %5.1f%%)\n"
             u r.Desim.breakdowns.(u) r.Desim.downtime.(u) (100.0 *. a)))
    avail;
  Buffer.add_string buf
    (Printf.sprintf "availability-adjusted analytic throughput: %.6g /unit (measured %.6g)\n"
       (adjusted_throughput inst mp model) r.Desim.throughput);
  (match lost_per_breakdown inst mp r with
  | None -> Buffer.add_string buf "products lost per breakdown: n/a\n"
  | Some l -> Buffer.add_string buf (Printf.sprintf "products lost per breakdown: %.2f\n" l));
  (match remap_latency_histogram r with
  | [] -> ()
  | hist ->
    Buffer.add_string buf "re-map latency histogram:\n";
    List.iter
      (fun (lo, hi, count) ->
        if count > 0 then
          Buffer.add_string buf
            (Printf.sprintf "  [%8.3f, %8.3f): %d\n" lo hi count))
      hist);
  Buffer.contents buf
