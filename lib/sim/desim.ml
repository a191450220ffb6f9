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

(* Calendar payloads.  [Complete] carries its own timestamp so the main
   loop can assert the heap never reorders; [Break] carries the work left
   on the interrupted execution; [Commit] carries the change stamp the
   re-map decision was computed against and is dropped when stale. *)
type ev =
  | Complete of { machine : int; task : int; finish : float }
  | Break of { machine : int; task : int; rem : float }
  | Repaired of { machine : int }
  | Commit of { stamp : int; moves : (int * int) array; latency : float }

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
  let wf = Instance.workflow inst in
  let rng = Rng.create seed in
  let emit e = match on_event with Some f -> f e | None -> () in
  (* Tasks of each machine, ordered by increasing distance to the sink;
     [pick_task] below refines this static priority with each task's
     normalised surviving production. *)
  let depth = Array.make n 0 in
  let backward = Workflow.backward_order wf in
  Array.iter
    (fun i ->
      depth.(i) <- (match Workflow.successor wf i with None -> 0 | Some j -> depth.(j) + 1))
    backward;
  (* The live allocation: starts as [mp], mutated only by re-map commits. *)
  let alloc = Mapping.to_array mp in
  let tasks_of = Array.make m [] in
  let rebuild_tasks_of () =
    Array.fill tasks_of 0 m [];
    for i = n - 1 downto 0 do
      let u = alloc.(i) in
      tasks_of.(u) <- i :: tasks_of.(u)
    done;
    for u = 0 to m - 1 do
      tasks_of.(u) <-
        List.sort (fun a b -> Stdlib.compare depth.(a) depth.(b)) tasks_of.(u)
    done
  in
  rebuild_tasks_of ();
  (* buffer.(i): products produced by task i, awaiting its successor. *)
  let buffer = Array.make n 0 in
  let is_source = Array.make n false in
  List.iter (fun i -> is_source.(i) <- true) (Workflow.sources wf);
  let preds = Array.init n (Workflow.predecessors wf) in
  (* A machine counts as busy until its completion event has been
     processed; comparing clock values alone mis-handles simultaneous
     events (another machine's completion at the exact same timestamp may
     pop first and would otherwise restart this one).  A down machine
     stays [running] too — its interrupted execution resumes on repair. *)
  let running = Array.make m false in
  let busy = Array.make m 0.0 in
  let lost = Array.make n 0 in
  let executions = Array.make n 0 in
  let consumed = ref 0 in
  let outputs_measured = ref 0 in
  let calendar = Calendar.create () in
  let is_final = Array.init n (fun i -> Workflow.successor wf i = None) in
  let output_has_room task =
    is_final.(task)
    || match buffer_capacity with None -> true | Some c -> buffer.(task) < c
  in
  let ready task =
    output_has_room task && List.for_all (fun p -> buffer.(p) > 0) preds.(task)
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
      share.(i) <-
        (match Workflow.successor wf i with Some j -> xs.(j) | None -> 1.0)
    done;
    Array.fill loads 0 m 0.0;
    for i = 0 to n - 1 do
      loads.(alloc.(i)) <- loads.(alloc.(i)) +. (xs.(i) *. Instance.w inst i alloc.(i))
    done
  in
  rebuild_shares ();
  let key task =
    ( float_of_int (executions.(task) - lost.(task)) /. share.(task),
      depth.(task),
      task )
  in
  let pick_task u =
    List.fold_left
      (fun best task ->
        if not (ready task) then best
        else
          match best with
          | Some b when key b <= key task -> best
          | _ -> Some task)
      None tasks_of.(u)
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
  let pending = Array.make m None in     (* interrupted (task, work left) *)
  let breakdown_count = Array.make m 0 in
  let downtime = Array.make m 0.0 in
  let crews_free = ref (match bd with Some b -> min b.Breakdown.crews m | None -> m) in
  let waiting = ref [] in                (* (machine, enqueue seq) *)
  let wait_seq = ref 0 in
  let change_stamp = ref 0 in
  let remaps = ref 0 in
  let latencies = ref [] in
  (* Consume failure hazard for [rem] busy time units on [u].  [None] when
     the execution completes undisturbed; [Some rem_left] when the hazard
     runs out with [rem_left] work still to do.  Zero-duration repairs
     (mttr = 0) are folded inline — they reset the hazard and the wear
     counter without splitting the busy segment, so an MTTR=0 run is
     byte-identical to the no-breakdown simulation. *)
  let rec scan_hazard u ~rem =
    let law = laws.(u) in
    (* mtbf = infinity gives lam = 0: fail_busy = infinity, and the
       subtraction below removes exactly 0.0 — no visible float changes. *)
    let lam = (1.0 +. (law.Breakdown.wear *. float_of_int units.(u))) /. law.Breakdown.mtbf in
    let fail_busy = hazard_left.(u) /. lam in
    if fail_busy >= rem then begin
      hazard_left.(u) <- hazard_left.(u) -. (lam *. rem);
      None
    end
    else if law.Breakdown.mttr = 0.0 then begin
      breakdown_count.(u) <- breakdown_count.(u) + 1;
      units.(u) <- 0;
      hazard_left.(u) <- exp1 u;
      scan_hazard u ~rem:(rem -. fail_busy)
    end
    else Some (rem -. fail_busy)
  in
  (* Start (or resume) an execution segment on a running machine: account
     the busy time now (clamped at the horizon) and schedule its end — a
     Complete, or a Break where the hazard runs out first. *)
  let begin_segment u task ~rem t =
    match if has_bd then scan_hazard u ~rem else None with
    | None ->
      let finish = t +. rem in
      busy.(u) <- busy.(u) +. (Float.min finish horizon -. t);
      Calendar.schedule calendar ~time:finish (Complete { machine = u; task; finish })
    | Some rem_left ->
      let tfail = t +. (rem -. rem_left) in
      busy.(u) <- busy.(u) +. (Float.min tfail horizon -. t);
      Calendar.schedule calendar ~time:tfail (Break { machine = u; task; rem = rem_left })
  in
  (* Try to start work on machine u at time t; returns true on success. *)
  let try_start u t =
    if running.(u) || down.(u) then false
    else begin
      match pick_task u with
      | None -> false
      | Some task ->
        List.iter (fun p -> buffer.(p) <- buffer.(p) - 1) preds.(task);
        if is_source.(task) then incr consumed;
        running.(u) <- true;
        emit (Event.Start { time = t; task; machine = u });
        begin_segment u task ~rem:(Instance.w inst task u) t;
        true
      end
  in
  let wake_all t =
    let progress = ref true in
    while !progress do
      progress := false;
      for u = 0 to m - 1 do
        if try_start u t then progress := true
      done
    done
  in
  let start_repair u t =
    let law = laws.(u) in
    if law.Breakdown.mttr = infinity then ()
      (* never repaired: the machine — and its crew — are gone for good *)
    else
      let dur = Rng.exponential brng.(u) ~rate:(1.0 /. law.Breakdown.mttr) in
      Calendar.schedule calendar ~time:(t +. dur) (Repaired { machine = u })
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
          Calendar.schedule calendar ~time:(t +. latency)
            (Commit { stamp = !change_stamp; moves; latency })
        end)
  in
  wake_all 0.0;
  let finished = ref false in
  while not !finished do
    match Calendar.next calendar with
    | None -> finished := true
    | Some (t, _) when t > horizon -> finished := true
    | Some (t, Complete { machine; task; finish }) ->
      assert (Float.equal t finish);
      assert running.(machine);
      running.(machine) <- false;
      executions.(task) <- executions.(task) + 1;
      units.(machine) <- units.(machine) + 1;
      let product_lost = Rng.bernoulli rng (Instance.f inst task machine) in
      emit (Event.Complete { time = t; task; machine; lost = product_lost });
      if product_lost then lost.(task) <- lost.(task) + 1
      else begin
        match Workflow.successor wf task with
        | Some _ -> buffer.(task) <- buffer.(task) + 1
        | None ->
          emit (Event.Output { time = t });
          if t >= warmup then incr outputs_measured
      end;
      wake_all t
    | Some (t, Break { machine = u; task; rem }) ->
      assert (running.(u) && not down.(u));
      down.(u) <- true;
      down_since.(u) <- t;
      pending.(u) <- Some (task, rem);
      breakdown_count.(u) <- breakdown_count.(u) + 1;
      emit (Event.Breakdown { time = t; machine = u });
      incr change_stamp;
      request_crew u t;
      ask_remapper t (Down u)
      (* nothing to wake: a breakdown frees no buffer and no machine *)
    | Some (t, Repaired { machine = u }) ->
      assert down.(u);
      down.(u) <- false;
      downtime.(u) <- downtime.(u) +. (t -. down_since.(u));
      units.(u) <- 0;
      hazard_left.(u) <- exp1 u;
      emit (Event.Repair { time = t; machine = u });
      incr change_stamp;
      release_crew t;
      (match pending.(u) with
      | Some (task, rem) ->
        (* work conserving: the interrupted product finishes on the
           machine that holds it, even if the task was re-mapped away *)
        pending.(u) <- None;
        emit (Event.Resume { time = t; task; machine = u });
        begin_segment u task ~rem t
      | None -> running.(u) <- false);
      ask_remapper t (Up u);
      wake_all t
    | Some (t, Commit { stamp; moves; latency }) ->
      (* A commit races the next availability change: if a breakdown or
         repair bumped the stamp since the decision was taken, the world
         the plan was computed for is gone — drop it on the floor. *)
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
          emit (Event.Remap { time = t; moves });
          wake_all t
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
