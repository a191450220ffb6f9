module Instance = Mf_core.Instance
module Workflow = Mf_core.Workflow
module Mapping = Mf_core.Mapping
module Period = Mf_core.Period
module Rng = Mf_prng.Rng
module State = Mf_eval.State

(* Schedule: the initial temperature is this fraction of the starting
   period, multiplied by [cooling] after each of the [steps] proposals. *)
let initial_temperature = 0.5
let cooling = 0.995
let steps = 3000

type proposal = Move of int * int | Swap of int * int

(* Draw a random neighbour.  The RNG consumption mirrors the reference
   implementation draw for draw, so both explore the same trajectory. *)
let propose rng st n m =
  if m > 1 && (n < 2 || Rng.bool rng) then begin
    (* Task move: random task to a random machine that accepts its type. *)
    let i = Rng.int rng n in
    let u = Rng.int rng m in
    if u = State.machine_of st i then None
    else if not (State.move_allowed st ~task:i ~machine:u) then None
    else Some (Move (i, u))
  end
  else begin
    (* Group swap: exchange two machines wholesale (always type-safe). *)
    let u = Rng.int rng m and v = Rng.int rng m in
    if u = v then None else Some (Swap (u, v))
  end

let run rng inst mp =
  Mapping.check inst mp Mapping.Specialized;
  let n = Instance.task_count inst and m = Instance.machines inst in
  let st = State.of_mapping inst mp in
  let current = ref (State.period st) in
  let best = ref (State.to_array st) in
  let best_period = ref !current in
  let temperature = ref (initial_temperature *. !current) in
  for _ = 1 to steps do
    (match propose rng st n m with
    | None -> ()
    | Some prop ->
      let candidate =
        match prop with
        | Move (i, u) -> State.try_move st ~task:i ~machine:u
        | Swap (u, v) -> State.try_swap st ~u ~v
      in
      let delta = candidate -. !current in
      let accept =
        delta <= 0.0
        || (!temperature > 0.0 && Rng.float rng 1.0 < exp (-.delta /. !temperature))
      in
      if accept then begin
        (match prop with
        | Move (i, u) -> State.apply_move st ~task:i ~machine:u
        | Swap (u, v) -> State.apply_swap st ~u ~v);
        current := State.period st;
        if !current < !best_period then begin
          best_period := !current;
          best := State.to_array st
        end
      end);
    temperature := !temperature *. cooling
  done;
  Mapping.of_array inst !best

(* ------------------------------------------------------------------ *)
(* Reference implementation                                            *)
(* ------------------------------------------------------------------ *)

(* The original annealer scoring every accepted proposal by a from-scratch
   Period.period on a mutated allocation array.  Kept as the
   differential-test baseline for [run]. *)

let propose_reference rng inst a =
  let n = Instance.task_count inst and m = Instance.machines inst in
  let wf = Instance.workflow inst in
  if m > 1 && (n < 2 || Rng.bool rng) then begin
    let i = Rng.int rng n in
    let u = Rng.int rng m in
    let original = a.(i) in
    if u = original then None
    else begin
      let ty = Workflow.ttype wf i in
      let compatible = ref true in
      Array.iteri
        (fun j uj ->
          if j <> i && uj = u && Workflow.ttype wf j <> ty then compatible := false)
        a;
      if not !compatible then None
      else begin
        a.(i) <- u;
        Some (fun () -> a.(i) <- original)
      end
    end
  end
  else begin
    let u = Rng.int rng m and v = Rng.int rng m in
    if u = v then None
    else begin
      let swap () =
        Array.iteri (fun j uj -> if uj = u then a.(j) <- v else if uj = v then a.(j) <- u) a
      in
      swap ();
      Some swap
    end
  end

let run_reference rng inst mp =
  Mapping.check inst mp Mapping.Specialized;
  let a = Mapping.to_array mp in
  let period_of arr = Period.period inst (Mapping.of_array inst arr) in
  let current = ref (period_of a) in
  let best = ref (Array.copy a) in
  let best_period = ref !current in
  let temperature = ref (initial_temperature *. !current) in
  for _ = 1 to steps do
    (match propose_reference rng inst a with
    | None -> ()
    | Some undo ->
      let candidate = period_of a in
      let delta = candidate -. !current in
      let accept =
        delta <= 0.0
        || (!temperature > 0.0 && Rng.float rng 1.0 < exp (-.delta /. !temperature))
      in
      if accept then begin
        current := candidate;
        if candidate < !best_period then begin
          best_period := candidate;
          best := Array.copy a
        end
      end
      else undo ());
    temperature := !temperature *. cooling
  done;
  Mapping.of_array inst !best
