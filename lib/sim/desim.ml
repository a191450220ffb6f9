module Instance = Mf_core.Instance
module Workflow = Mf_core.Workflow
module Mapping = Mf_core.Mapping
module Products = Mf_core.Products
module Rng = Mf_prng.Rng

type result = {
  outputs : int;
  throughput : float;
  window : float;
  consumed : int;
  lost : int array;
  executions : int array;
  busy : float array;
  horizon : float;
  breakdowns : int array;
  downtime : float array;
  remaps : int;
  remap_latencies : float array;
  final_mapping : int array;
}

type change = Down of int | Up of int

type remap_decision = { moves : (int * int) array; evals : int }

type remapper =
  time:float -> down:bool array -> mapping:int array -> change ->
  remap_decision option

(* Calendar codes: [kind lor (index lsl 2)].  A machine has at most one
   event in flight — the end of its current segment (a Complete, or a
   Break where the hazard runs out first) or, while it is down, its
   Repaired — so those three are coded by machine, and the segment's
   task and remaining work live in per-machine arrays.  A Commit is coded
   by its index in a side table of decisions; it carries the change stamp
   the decision was computed against and is dropped when stale. *)
let ev_complete = 0
let ev_break = 1
let ev_repaired = 2
let ev_commit = 3
let[@inline] code kind index = kind lor (index lsl 2)

type commit = { stamp : int; moves : (int * int) array; latency : float }

(* Simulated time one re-map evaluation costs: a decision's latency is
   its [evals] times this. *)
let remap_eval_cost = 0.01

let run ?warmup ?buffer_capacity ?breakdowns:bd ?remapper ~horizon ~seed ?on_event inst mp =
  let warmup = Option.value warmup ~default:(horizon /. 5.0) in
  if horizon <= warmup || warmup < 0.0 then
    invalid_arg "Desim.run: need 0 <= warmup < horizon";
  (match buffer_capacity with
  | Some c when c < 1 -> invalid_arg "Desim.run: buffer capacity must be at least 1"
  | _ -> ());
  let n = Instance.task_count inst in
  let m = Instance.machines inst in
  (match bd with
  | Some b when Breakdown.machines b <> m ->
    invalid_arg "Desim.run: breakdown model sized for a different machine count"
  | _ -> ());
  (* The live allocation: starts as [mp], mutated only by re-map commits. *)
  let alloc = Mapping.to_array mp in
  if Array.length alloc <> n || Array.exists (fun u -> u >= m) alloc then
    invalid_arg "Desim.run: mapping sized for a different instance";
  let wf = Instance.workflow inst in
  let rng = Rng.create seed in
  (* Events are built only for a caller that listens. *)
  let tracing = Option.is_some on_event in
  let emit = Option.value on_event ~default:ignore in
  let w = Array.init n (fun i -> Array.init m (Instance.w inst i)) in
  let f = Array.init n (fun i -> Array.init m (Instance.f inst i)) in
  let succ =
    Array.init n (fun i -> match Workflow.successor wf i with Some j -> j | None -> -1)
  in
  let preds = Array.init n (fun i -> Array.of_list (Workflow.predecessors wf i)) in
  (* depth.(i): distance to the sink, [pick_task]'s first tie-break. *)
  let depth = Array.make n 0 in
  Array.iter
    (fun i -> depth.(i) <- (if succ.(i) < 0 then 0 else depth.(succ.(i)) + 1))
    (Workflow.backward_order wf);
  (* tasks_of.(u): the tasks allocated to u, in increasing index order. *)
  let tasks_of = Array.make m [||] in
  let rebuild_tasks_of () =
    let lists = Array.make m [] in
    for i = n - 1 downto 0 do
      lists.(alloc.(i)) <- i :: lists.(alloc.(i))
    done;
    Array.iteri (fun u l -> tasks_of.(u) <- Array.of_list l) lists
  in
  rebuild_tasks_of ();
  (* buffer.(i): products produced by task i, awaiting its successor. *)
  let buffer = Array.make n 0 in
  let capacity = Option.value buffer_capacity ~default:max_int in
  let is_source = Array.make n false in
  List.iter (fun i -> is_source.(i) <- true) (Workflow.sources wf);
  (* A machine counts as busy until its completion event has been
     processed; comparing clock values alone mis-handles simultaneous
     events (another machine's completion at the exact same timestamp may
     pop first and would otherwise restart this one).  A down machine
     stays [running] too — its interrupted execution resumes on repair. *)
  let running = Array.make m false in
  (* The segment in flight on each machine (interrupted, while down):
     its task and, after a Break, the work it has left. *)
  let seg_task = Array.make m 0 in
  let seg_rem = Array.make m 0.0 in
  let busy = Array.make m 0.0 in
  let lost = Array.make n 0 in
  let executions = Array.make n 0 in
  let consumed = ref 0 in
  let outputs_measured = ref 0 in
  let calendar = Calendar.create () in
  let commits = Mf_structures.Dyn_array.create () in
  let rec inputs_ready ps k = k < 0 || (buffer.(ps.(k)) > 0 && inputs_ready ps (k - 1)) in
  let ready task =
    (succ.(task) < 0 || buffer.(task) < capacity)
    && inputs_ready preds.(task) (Array.length preds.(task) - 1)
  in
  (* Among the ready tasks of a machine, run the one furthest behind its
     required share of surviving production: cumulative survivors
     (executions minus losses) divided by the number of products the
     task's successor must consume per system output (the analytic
     product count x of the successor; 1 for the sink).  Ties break
     toward the sink and then the lowest task index.  This is
     proportional-share dispatch at exactly the fluid rates the period
     formula assumes, and it is the third iteration of this policy —
     the fuzz corpus pins a shrunk counterexample for each predecessor:
     a static downstream-first priority let a source branch sharing a
     machine with a sibling branch of an assembly run forever (the join
     never fired); prioritising the emptiest output buffer fixed that
     but livelocked when a consumer on another machine drained a
     branch's buffer the instant it was filled, so the index tie-break
     at buffer 0 again starved the sibling; and unweighted surviving
     production fixed *that* but underfed branches whose failure rates
     make their required multiplicity higher than their siblings',
     costing ~14% throughput on the third corpus instance.  Normalised
     survivors are monotone (consumption cannot erase them) and weighted
     (lossy branches re-run exactly as often as their successors need),
     so every ready task is eventually scheduled and the execution mix
     tracks the fluid optimum a work-conserving machine can sustain. *)
  let xs = Products.x inst mp in
  let share = Array.make n 1.0 in
  (* loads.(u): the analytic period contribution of u's current tasks —
     read by the Priority repair queue (fix the heaviest machine first). *)
  let loads = Array.make m 0.0 in
  let rebuild_shares () =
    for i = 0 to n - 1 do
      share.(i) <- (if succ.(i) < 0 then 1.0 else xs.(succ.(i)))
    done;
    Array.fill loads 0 m 0.0;
    for i = 0 to n - 1 do
      loads.(alloc.(i)) <- loads.(alloc.(i)) +. (xs.(i) *. w.(i).(alloc.(i)))
    done
  in
  rebuild_shares ();
  (* The ready task of [u] with the least (survivor ratio, depth, index),
     or -1 when none is ready. *)
  let pick_task u =
    let ts = tasks_of.(u) in
    let best = ref (-1) and best_ratio = ref 0.0 in
    for k = 0 to Array.length ts - 1 do
      let task = ts.(k) in
      if ready task then begin
        let ratio = float_of_int (executions.(task) - lost.(task)) /. share.(task) in
        let b = !best in
        if b < 0 || ratio < !best_ratio
           || (ratio = !best_ratio
              && (depth.(task) < depth.(b) || (depth.(task) = depth.(b) && task < b)))
        then begin
          best := task;
          best_ratio := ratio
        end
      end
    done;
    !best
  in
  (* --- availability state ------------------------------------------- *)
  let laws =
    match bd with
    | Some b -> b.Breakdown.laws
    | None -> [||]
  in
  let has_bd = bd <> None in
  (* Separate per-machine breakdown streams, Splitmix64-derived from the
     run seed: breakdown draws must never touch the product-loss stream,
     or MTBF=infinity would desynchronise the Bernoulli sequence and break
     byte-identity with the no-breakdown simulation. *)
  let brng =
    Array.init m (fun u ->
        let mix acc v =
          Mf_prng.Splitmix64.next (Mf_prng.Splitmix64.create (Int64.logxor acc v))
        in
        let h = mix (mix 0x64796e616d696373L (Int64.of_int seed)) (Int64.of_int u) in
        Rng.create (Int64.to_int h land max_int))
  in
  (* Hazard threshold ~ Exp(1); floored so a pathological zero draw cannot
     wedge the instant-repair fold below. *)
  let exp1 u = Float.max 0x1p-60 (Rng.exponential brng.(u) ~rate:1.0) in
  let hazard_left =
    Array.init m (fun u -> if has_bd then exp1 u else infinity)
  in
  let units = Array.make m 0 in          (* produced since last repair *)
  let down = Array.make m false in
  let down_since = Array.make m 0.0 in
  let breakdown_count = Array.make m 0 in
  let downtime = Array.make m 0.0 in
  let crews_free = ref (match bd with Some b -> min b.Breakdown.crews m | None -> m) in
  let waiting = ref [] in                (* (machine, enqueue seq) *)
  let wait_seq = ref 0 in
  let change_stamp = ref 0 in
  let remaps = ref 0 in
  let latencies = ref [] in
  (* Consume failure hazard for the [seg_rem.(u)] work units of [u]'s
     segment.  False when the segment completes undisturbed; true when
     the hazard runs out first, with [seg_rem.(u)] set to the work still
     to do.  Zero-duration repairs (mttr = 0) are folded inline — they
     reset the hazard and the wear counter without splitting the busy
     segment, so an MTTR=0 run is byte-identical to the no-breakdown
     simulation. *)
  let rec hazard_runs_out u =
    let law = laws.(u) in
    let rem = seg_rem.(u) in
    (* mtbf = infinity gives lam = 0: fail_busy = infinity, and the
       subtraction below removes exactly 0.0 — no visible float changes. *)
    let lam = (1.0 +. (law.Breakdown.wear *. float_of_int units.(u))) /. law.Breakdown.mtbf in
    let fail_busy = hazard_left.(u) /. lam in
    if fail_busy >= rem then begin
      hazard_left.(u) <- hazard_left.(u) -. (lam *. rem);
      false
    end
    else begin
      seg_rem.(u) <- rem -. fail_busy;
      if law.Breakdown.mttr = 0.0 then begin
        breakdown_count.(u) <- breakdown_count.(u) + 1;
        units.(u) <- 0;
        hazard_left.(u) <- exp1 u;
        hazard_runs_out u
      end
      else true
    end
  in
  (* Start (or resume) the segment of [seg_task.(u)], [seg_rem.(u)] work
     units long, on a running machine: account the busy time now (clamped
     at the horizon) and schedule its end — a Complete, or a Break where
     the hazard runs out first. *)
  let begin_segment u t =
    let rem = seg_rem.(u) in
    if has_bd && hazard_runs_out u then begin
      let tfail = t +. (rem -. seg_rem.(u)) in
      busy.(u) <- busy.(u) +. (Float.min tfail horizon -. t);
      Calendar.schedule calendar ~time:tfail (code ev_break u)
    end
    else begin
      let finish = t +. rem in
      busy.(u) <- busy.(u) +. (Float.min finish horizon -. t);
      Calendar.schedule calendar ~time:finish (code ev_complete u)
    end
  in
  (* --- dispatch -------------------------------------------------------
     Only an event can let an idle machine start, and only the machines
     it names: a Complete frees its machine and fills one buffer (read by
     the successor's host); a start under a finite capacity takes one
     product from each predecessor's buffer (which can unblock that
     predecessor's host); a repair or a landed commit may enable any
     machine.  [dispatch] visits the woken machines in increasing index,
     sweep after sweep, leaving a machine woken at or below the current
     index for the next sweep — the order in which repeated full scans of
     every machine would start them, since a machine no event woke
     cannot start and a failed start changes nothing. *)
  let woken = Array.make m false in
  let n_woken = ref 0 in
  let wake u =
    if not woken.(u) then begin
      woken.(u) <- true;
      incr n_woken
    end
  in
  let wake_all () =
    for u = 0 to m - 1 do
      wake u
    done
  in
  let try_start u t =
    if not (running.(u) || down.(u)) then begin
      let task = pick_task u in
      if task >= 0 then begin
        let ps = preds.(task) in
        for k = 0 to Array.length ps - 1 do
          buffer.(ps.(k)) <- buffer.(ps.(k)) - 1;
          if capacity < max_int then wake alloc.(ps.(k))
        done;
        if is_source.(task) then incr consumed;
        running.(u) <- true;
        if tracing then emit (Event.Start { time = t; task; machine = u });
        seg_task.(u) <- task;
        seg_rem.(u) <- w.(task).(u);
        begin_segment u t
      end
    end
  in
  let dispatch t =
    while !n_woken > 0 do
      for u = 0 to m - 1 do
        if woken.(u) then begin
          woken.(u) <- false;
          decr n_woken;
          try_start u t
        end
      done
    done
  in
  let start_repair u t =
    let law = laws.(u) in
    if law.Breakdown.mttr = infinity then ()
      (* never repaired: the machine — and its crew — are gone for good *)
    else
      let dur = Rng.exponential brng.(u) ~rate:(1.0 /. law.Breakdown.mttr) in
      Calendar.schedule calendar ~time:(t +. dur) (code ev_repaired u)
  in
  let request_crew u t =
    if !crews_free > 0 then begin
      decr crews_free;
      start_repair u t
    end
    else begin
      waiting := (u, !wait_seq) :: !waiting;
      incr wait_seq
    end
  in
  let release_crew t =
    match !waiting with
    | [] -> incr crews_free
    | queue ->
      let better (u, su) (v, sv) =
        match (match bd with Some b -> b.Breakdown.queue | None -> Breakdown.Fifo) with
        | Breakdown.Fifo -> if su < sv then (u, su) else (v, sv)
        | Breakdown.Priority ->
          if loads.(u) > loads.(v) || (loads.(u) = loads.(v) && u < v) then (u, su)
          else (v, sv)
      in
      let chosen = List.fold_left better (List.hd queue) (List.tl queue) in
      waiting := List.filter (fun e -> e <> chosen) !waiting;
      start_repair (fst chosen) t
  in
  let ask_remapper t change =
    match remapper with
    | None -> ()
    | Some f ->
      (match f ~time:t ~down:(Array.copy down) ~mapping:(Array.copy alloc) change with
      | None -> ()
      | Some { moves; evals } ->
        if Array.length moves > 0 then begin
          Array.iter
            (fun (i, v) ->
              if i < 0 || i >= n || v < 0 || v >= m then
                invalid_arg "Desim.run: remapper returned an out-of-range move")
            moves;
          let latency = remap_eval_cost *. float_of_int (max 0 evals) in
          let index = Mf_structures.Dyn_array.length commits in
          Mf_structures.Dyn_array.push commits { stamp = !change_stamp; moves; latency };
          Calendar.schedule calendar ~time:(t +. latency) (code ev_commit index)
        end)
  in
  (* --- event handlers ------------------------------------------------ *)
  let complete u t =
    assert running.(u);
    running.(u) <- false;
    let task = seg_task.(u) in
    executions.(task) <- executions.(task) + 1;
    units.(u) <- units.(u) + 1;
    let product_lost = Rng.bernoulli rng f.(task).(u) in
    if tracing then emit (Event.Complete { time = t; task; machine = u; lost = product_lost });
    if product_lost then lost.(task) <- lost.(task) + 1
    else if succ.(task) >= 0 then begin
      buffer.(task) <- buffer.(task) + 1;
      wake alloc.(succ.(task))
    end
    else begin
      if tracing then emit (Event.Output { time = t });
      if t >= warmup then incr outputs_measured
    end;
    wake u;
    dispatch t
  in
  let break_down u t =
    assert (running.(u) && not down.(u));
    down.(u) <- true;
    down_since.(u) <- t;
    breakdown_count.(u) <- breakdown_count.(u) + 1;
    if tracing then emit (Event.Breakdown { time = t; machine = u });
    incr change_stamp;
    request_crew u t;
    ask_remapper t (Down u)
    (* nothing to wake: a breakdown frees no buffer and no machine *)
  in
  let repaired u t =
    assert down.(u);
    down.(u) <- false;
    downtime.(u) <- downtime.(u) +. (t -. down_since.(u));
    units.(u) <- 0;
    hazard_left.(u) <- exp1 u;
    if tracing then emit (Event.Repair { time = t; machine = u });
    incr change_stamp;
    release_crew t;
    (* work conserving: the interrupted product finishes on the machine
       that holds it, even if the task was re-mapped away (a machine only
       goes down at a Break, so it always holds one) *)
    if tracing then emit (Event.Resume { time = t; task = seg_task.(u); machine = u });
    begin_segment u t;
    ask_remapper t (Up u);
    wake_all ();
    dispatch t
  in
  (* A commit races the next availability change: if a breakdown or
     repair bumped the stamp since the decision was taken, the world the
     plan was computed for is gone — drop it on the floor. *)
  let land_commit index t =
    let { stamp; moves; latency } = Mf_structures.Dyn_array.get commits index in
    if stamp = !change_stamp then begin
      let changed = ref false in
      Array.iter
        (fun (i, v) -> if alloc.(i) <> v then begin alloc.(i) <- v; changed := true end)
        moves;
      if !changed then begin
        rebuild_tasks_of ();
        let xs' = Products.x inst (Mapping.of_array inst alloc) in
        Array.blit xs' 0 xs 0 n;
        rebuild_shares ();
        incr remaps;
        latencies := latency :: !latencies;
        if tracing then emit (Event.Remap { time = t; moves });
        wake_all ();
        dispatch t
      end
    end
  in
  wake_all ();
  dispatch 0.0;
  let finished = ref false in
  while not !finished do
    if Calendar.is_empty calendar then finished := true
    else begin
      let t = Calendar.min_time calendar in
      if t > horizon then finished := true
      else begin
        let ev = Calendar.pop calendar in
        let kind = ev land 3 and index = ev lsr 2 in
        if kind = ev_complete then complete index t
        else if kind = ev_break then break_down index t
        else if kind = ev_repaired then repaired index t
        else land_commit index t
      end
    end
  done;
  (* Machines still down when the horizon closes: clamp their outage. *)
  for u = 0 to m - 1 do
    if down.(u) then downtime.(u) <- downtime.(u) +. (horizon -. down_since.(u))
  done;
  let window = horizon -. warmup in
  {
    outputs = !outputs_measured;
    throughput = float_of_int !outputs_measured /. window;
    window;
    consumed = !consumed;
    lost;
    executions;
    busy;
    horizon;
    breakdowns = breakdown_count;
    downtime;
    remaps = !remaps;
    remap_latencies = Array.of_list (List.rev !latencies);
    final_mapping = alloc;
  }

let measured_loss_rate r ~task =
  if task < 0 || task >= Array.length r.executions then
    invalid_arg "Desim.measured_loss_rate: task out of range";
  if r.executions.(task) = 0 then nan
  else float_of_int r.lost.(task) /. float_of_int r.executions.(task)
