module Instance = Mf_core.Instance
module Workflow = Mf_core.Workflow
module Mapping = Mf_core.Mapping
module Kahan = Mf_numeric.Kahan

(* Undo journal of backward-order assignments — the branch-and-bound
   hot path, executed millions of times per search.  Entries live in flat
   parallel arrays so that assign/undo allocate nothing (boxed journal
   records were the dominant allocation of the exact search, and in OCaml
   5 every minor collection synchronises all domains, so hot-path
   allocation destroys parallel scaling).  Moves and swaps commit in place
   and are never journalled.

   Floats per journal entry: the assigned machine's previous load sum,
   load compensation and extra, the previous period, and the previous
   total-load sum and compensation. *)
let ja_floats = 6

type t = {
  inst : Instance.t;
  n : int;
  m : int;
  p : int;
  order : int array; (* backward order: successors first *)
  succ : int array; (* task -> successor, -1 = sink *)
  preds : int array array; (* task -> predecessors, Workflow order *)
  ttype : int array; (* task -> type *)
  assign : int array; (* task -> machine, -1 = unassigned *)
  x : float array; (* product counts; nan when unassigned *)
  (* Compensated loads: slot u < m is machine u, slot m the total over
     all machines; [lsum] holds the running sums, [lcomp] their
     compensations (see [add_load]). *)
  lsum : float array;
  lcomp : float array;
  extra : float array; (* flat costs injected via assign_task_with *)
  tcount : int array; (* (u * p + ty) -> tasks of type ty on u *)
  ntasks : int array; (* tasks per machine *)
  mutable period : float; (* cached max load; meaningful when valid *)
  mutable period_valid : bool;
  (* The assignment journal.  At most [n] tasks are assigned at once, so
     capacity [n] suffices. *)
  ja_task : int array; (* entry -> assigned task *)
  ja_machine : int array; (* entry -> its machine *)
  ja_f : float array; (* ja_floats floats per entry *)
  mutable ja_len : int; (* live entries *)
  (* Evaluation scratch, reused across calls so try_* allocates nothing.
     Stamps compare against a generation counter instead of being cleared. *)
  mutable mgen : int;
  mstamp : int array; (* machine -> generation of last touch *)
  mold : float array; (* load total at touch time *)
  mdelta : float array; (* accumulated tentative load delta *)
  touched : int array; (* touched machine indices *)
  mutable n_touched : int;
  mutable tgen : int;
  tstamp : int array; (* task -> generation (affected set) *)
  xnew : float array; (* tentative new x of affected tasks *)
  aff : int array; (* affected tasks *)
  mutable n_aff : int;
  stack : int array; (* DFS stack over predecessors *)
  (* Private copies of the instance's w and f matrices: Instance.w/f
     bounds-check and box their result on every call, which dominates
     the branch-and-bound inner loop; a plain nested array read here
     compiles to two loads. *)
  wrow : float array array;
  frow : float array array;
}

let create inst =
  let n = Instance.task_count inst and m = Instance.machines inst in
  let p = Instance.type_count inst in
  let wf = Instance.workflow inst in
  {
    inst;
    n;
    m;
    p;
    order = Workflow.backward_order wf;
    succ =
      Array.init n (fun i ->
          match Workflow.successor wf i with Some j -> j | None -> -1);
    preds = Array.init n (fun i -> Array.of_list (Workflow.predecessors wf i));
    ttype = Array.init n (Workflow.ttype wf);
    assign = Array.make n (-1);
    x = Array.make n nan;
    lsum = Array.make (m + 1) 0.0;
    lcomp = Array.make (m + 1) 0.0;
    extra = Array.make m 0.0;
    tcount = Array.make (m * p) 0;
    ntasks = Array.make m 0;
    period = 0.0;
    period_valid = true;
    ja_task = Array.make (max 1 n) 0;
    ja_machine = Array.make (max 1 n) 0;
    ja_f = Array.make (max 1 (ja_floats * n)) 0.0;
    ja_len = 0;
    mgen = 0;
    mstamp = Array.make m 0;
    mold = Array.make m 0.0;
    mdelta = Array.make m 0.0;
    touched = Array.make m 0;
    n_touched = 0;
    tgen = 0;
    tstamp = Array.make n 0;
    xnew = Array.make n nan;
    aff = Array.make n 0;
    n_aff = 0;
    stack = Array.make n 0;
    wrow = Array.init n (fun i -> Array.init m (fun u -> Instance.w inst i u));
    frow = Array.init n (fun i -> Array.init m (fun u -> Instance.f inst i u));
  }

(* Neumaier's add into load slot [k], with exactly [Kahan.add]'s float
   operations, so every slot holds the value a [Kahan.t] would.  It is
   written out here because dune's default profile compiles with
   [-opaque]: a call to [Kahan.add] or [Kahan.total] from this module is
   a real call that boxes its float, and [try_*] would allocate. *)
let[@inline] add_load t k x =
  let s = t.lsum.(k) in
  let r = s +. x in
  if Float.abs s >= Float.abs x then t.lcomp.(k) <- t.lcomp.(k) +. ((s -. r) +. x)
  else t.lcomp.(k) <- t.lcomp.(k) +. ((x -. r) +. s);
  t.lsum.(k) <- r

let[@inline] load t k = t.lsum.(k) +. t.lcomp.(k)

let check_task t i = if i < 0 || i >= t.n then invalid_arg "State: task out of range"
let check_machine t u = if u < 0 || u >= t.m then invalid_arg "State: machine out of range"
let instance t = t.inst

let machine_of t i =
  check_task t i;
  t.assign.(i)

let x t i =
  check_task t i;
  t.x.(i)

let[@inline] machine_load t u =
  check_machine t u;
  load t u

let[@inline] tasks_on t u =
  check_machine t u;
  t.ntasks.(u)

let[@inline] total_load t = load t t.m

let hosts_type t ~machine ~ty =
  check_machine t machine;
  if ty < 0 || ty >= t.p then invalid_arg "State: type out of range";
  t.tcount.((machine * t.p) + ty) > 0

let move_allowed t ~task ~machine =
  check_task t task;
  check_machine t machine;
  let ty = t.ttype.(task) in
  let own = if t.assign.(task) = machine then 1 else 0 in
  t.ntasks.(machine) - own = t.tcount.((machine * t.p) + ty) - own

let refresh_period t =
  if not t.period_valid then begin
    let mx = ref 0.0 in
    for u = 0 to t.m - 1 do
      let lu = load t u in
      if lu > !mx then mx := lu
    done;
    t.period <- !mx;
    t.period_valid <- true
  end

let period t =
  refresh_period t;
  t.period

let is_complete t = Array.for_all (fun u -> u >= 0) t.assign
let to_array t = Array.copy t.assign

let mapping t =
  if not (is_complete t) then invalid_arg "State.mapping: incomplete assignment";
  Mapping.of_array t.inst t.assign

let undo_depth t = t.ja_len

let reset t =
  Array.fill t.assign 0 t.n (-1);
  Array.fill t.x 0 t.n nan;
  Array.fill t.lsum 0 (t.m + 1) 0.0;
  Array.fill t.lcomp 0 (t.m + 1) 0.0;
  Array.fill t.extra 0 t.m 0.0;
  Array.fill t.tcount 0 (t.m * t.p) 0;
  Array.fill t.ntasks 0 t.m 0;
  t.period <- 0.0;
  t.period_valid <- true;
  t.ja_len <- 0

let load_mapping t mp =
  reset t;
  (* Product counts in backward order, with [Products.x]'s float
     operations, so they equal its values bit for bit. *)
  for k = 0 to t.n - 1 do
    let i = t.order.(k) in
    let u = Mapping.machine mp i in
    check_machine t u;
    let s = t.succ.(i) in
    let downstream = if s < 0 then 1.0 else t.x.(s) in
    t.assign.(i) <- u;
    t.x.(i) <- 1.0 /. (1.0 -. t.frow.(i).(u)) *. downstream
  done;
  (* Loads accumulate in increasing task order, exactly like
     [Period.machine_periods], so the initial period is bit-identical. *)
  for i = 0 to t.n - 1 do
    let u = t.assign.(i) in
    add_load t u (t.x.(i) *. t.wrow.(i).(u));
    add_load t t.m (t.x.(i) *. t.wrow.(i).(u));
    let ti = (u * t.p) + t.ttype.(i) in
    t.tcount.(ti) <- t.tcount.(ti) + 1;
    t.ntasks.(u) <- t.ntasks.(u) + 1
  done;
  t.period_valid <- false;
  refresh_period t

let of_mapping inst mp =
  let t = create inst in
  load_mapping t mp;
  t

(* ------------------------------------------------------------------ *)
(* Backward-order assignment                                           *)
(* ------------------------------------------------------------------ *)

let[@inline] x_succ t task =
  let j = t.succ.(task) in
  if j < 0 then 1.0
  else if t.assign.(j) < 0 then invalid_arg "State: successor not yet assigned"
  else t.x.(j)

let[@inline] x_candidate t ~task ~machine =
  check_task t task;
  check_machine t machine;
  x_succ t task /. (1.0 -. t.frow.(task).(machine))

(* [extra] is a required argument: an optional float argument wraps in
   [Some] (an allocation) at every call site, and the branch-and-bound
   inner loop calls these once per candidate. *)
let[@inline] try_assign_with t ~extra ~task ~machine =
  let xc = x_candidate t ~task ~machine in
  machine_load t machine +. (xc *. t.wrow.(task).(machine)) +. extra

let assign_task_with t ~extra ~task ~machine =
  check_task t task;
  check_machine t machine;
  if t.assign.(task) >= 0 then invalid_arg "State.assign_task_with: task already assigned";
  let xi = x_succ t task /. (1.0 -. t.frow.(task).(machine)) in
  refresh_period t;
  (* Journal into the flat arrays: no allocation on this path. *)
  let e = t.ja_len in
  t.ja_task.(e) <- task;
  t.ja_machine.(e) <- machine;
  let base = ja_floats * e in
  t.ja_f.(base) <- t.lsum.(machine);
  t.ja_f.(base + 1) <- t.lcomp.(machine);
  t.ja_f.(base + 2) <- t.extra.(machine);
  t.ja_f.(base + 3) <- t.period;
  t.ja_f.(base + 4) <- t.lsum.(t.m);
  t.ja_f.(base + 5) <- t.lcomp.(t.m);
  t.ja_len <- e + 1;
  t.assign.(task) <- machine;
  t.x.(task) <- xi;
  add_load t machine ((xi *. t.wrow.(task).(machine)) +. extra);
  add_load t t.m ((xi *. t.wrow.(task).(machine)) +. extra);
  t.extra.(machine) <- t.extra.(machine) +. extra;
  let ti = (machine * t.p) + t.ttype.(task) in
  t.tcount.(ti) <- t.tcount.(ti) + 1;
  t.ntasks.(machine) <- t.ntasks.(machine) + 1;
  (* Loads only grow under assignment, so the cached max updates in O(1). *)
  let lu = load t machine in
  if lu > t.period then t.period <- lu

let undo t =
  if t.ja_len = 0 then invalid_arg "State.undo: empty journal";
  let e = t.ja_len - 1 in
  t.ja_len <- e;
  let task = t.ja_task.(e) and machine = t.ja_machine.(e) in
  let base = ja_floats * e in
  t.assign.(task) <- -1;
  t.x.(task) <- nan;
  t.lsum.(machine) <- t.ja_f.(base);
  t.lcomp.(machine) <- t.ja_f.(base + 1);
  t.extra.(machine) <- t.ja_f.(base + 2);
  t.period <- t.ja_f.(base + 3);
  t.lsum.(t.m) <- t.ja_f.(base + 4);
  t.lcomp.(t.m) <- t.ja_f.(base + 5);
  let ti = (machine * t.p) + t.ttype.(task) in
  t.tcount.(ti) <- t.tcount.(ti) - 1;
  t.ntasks.(machine) <- t.ntasks.(machine) - 1;
  t.period_valid <- true

(* ------------------------------------------------------------------ *)
(* Tentative evaluation machinery                                      *)
(* ------------------------------------------------------------------ *)

let begin_eval t =
  t.mgen <- t.mgen + 1;
  t.n_touched <- 0;
  t.tgen <- t.tgen + 1;
  t.n_aff <- 0

let[@inline] touch t v =
  if t.mstamp.(v) <> t.mgen then begin
    t.mstamp.(v) <- t.mgen;
    t.mold.(v) <- load t v;
    t.mdelta.(v) <- 0.0;
    t.touched.(t.n_touched) <- v;
    t.n_touched <- t.n_touched + 1
  end

let[@inline] stamp_task t j xj' =
  if t.tstamp.(j) <> t.tgen then begin
    t.tstamp.(j) <- t.tgen;
    t.aff.(t.n_aff) <- j;
    t.n_aff <- t.n_aff + 1
  end;
  t.xnew.(j) <- xj'

(* Tentative system period from the scratch deltas.  When none of the
   touched machines attained the cached maximum, the untouched maximum is
   the cached period itself and no scan is needed; otherwise one O(m) pass
   over the untouched machines recovers it. *)
let tentative_period t =
  refresh_period t;
  let mx = ref 0.0 in
  let touched_had_max = ref false in
  for k = 0 to t.n_touched - 1 do
    let v = t.touched.(k) in
    if t.mold.(v) >= t.period then touched_had_max := true;
    let nv = t.mold.(v) +. t.mdelta.(v) in
    if nv > !mx then mx := nv
  done;
  if not !touched_had_max then Float.max t.period !mx
  else begin
    let best = ref !mx in
    for v = 0 to t.m - 1 do
      if t.mstamp.(v) <> t.mgen then begin
        let lv = load t v in
        if lv > !best then best := lv
      end
    done;
    Float.max 0.0 !best
  end

(* Walk the upstream subtree of [task] for a move to [machine].  Every x
   in the subtree is the product of the per-task factors on its path to
   the sink; only [task]'s factor changes, so they all scale by the same
   ratio [r].  Unassigned tasks (partial states) are skipped: by the
   downstream-closure invariant their whole upstream cone is unassigned.
   The walk pushes predecessors in [Workflow.predecessors] order, which
   fixes the order the per-machine deltas accumulate in.

   When [r] is exactly 1.0 (f(task, ·) equal on both machines, e.g.
   machine-independent failures) the walk is skipped: it would set every
   x' = x *. 1.0 = x and add a +0.0 delta to each upstream machine, and
   neither the tentative period nor a commit can tell those apart from
   untouched entries (DESIGN.md §8). *)
let eval_move t ~task ~machine =
  check_task t task;
  check_machine t machine;
  if t.assign.(task) < 0 then invalid_arg "State: task not assigned";
  begin_eval t;
  let old_u = t.assign.(task) in
  let r =
    (1.0 -. t.frow.(task).(old_u)) /. (1.0 -. t.frow.(task).(machine))
  in
  let xi = t.x.(task) in
  let xi' = xi *. r in
  stamp_task t task xi';
  touch t old_u;
  t.mdelta.(old_u) <- t.mdelta.(old_u) -. (xi *. t.wrow.(task).(old_u));
  touch t machine;
  t.mdelta.(machine) <- t.mdelta.(machine) +. (xi' *. t.wrow.(task).(machine));
  let ps = t.preds.(task) in
  let sp = ref (if r = 1.0 then 0 else Array.length ps) in
  Array.blit ps 0 t.stack 0 !sp;
  while !sp > 0 do
    decr sp;
    let j = t.stack.(!sp) in
    if t.assign.(j) >= 0 then begin
      let v = t.assign.(j) in
      let xj = t.x.(j) in
      let xj' = xj *. r in
      stamp_task t j xj';
      touch t v;
      t.mdelta.(v) <- t.mdelta.(v) +. ((xj' -. xj) *. t.wrow.(j).(v));
      let ps = t.preds.(j) in
      Array.blit ps 0 t.stack !sp (Array.length ps);
      sp := !sp + Array.length ps
    end
  done

(* Group swap: every assigned task on [u] or [v] changes machine, and any
   task whose successor's x changed must be re-derived too.  One pass in
   backward order visits successors before predecessors. *)
let eval_swap t ~u ~v =
  check_machine t u;
  check_machine t v;
  begin_eval t;
  for k = 0 to t.n - 1 do
    let j = t.order.(k) in
    let uj = t.assign.(j) in
    if uj >= 0 then begin
      let nj = if uj = u then v else if uj = v then u else uj in
      let s = t.succ.(j) in
      let succ_affected = s >= 0 && t.tstamp.(s) = t.tgen in
      if nj <> uj || succ_affected then begin
        let xs =
          if s < 0 then 1.0 else if succ_affected then t.xnew.(s) else t.x.(s)
        in
        let xj' = xs /. (1.0 -. t.frow.(j).(nj)) in
        stamp_task t j xj';
        touch t uj;
        t.mdelta.(uj) <- t.mdelta.(uj) -. (t.x.(j) *. t.wrow.(j).(uj));
        touch t nj;
        t.mdelta.(nj) <- t.mdelta.(nj) +. (xj' *. t.wrow.(j).(nj))
      end
    end
  done

let try_move t ~task ~machine =
  eval_move t ~task ~machine;
  tentative_period t

let try_swap t ~u ~v =
  eval_swap t ~u ~v;
  tentative_period t

(* [task] changes machine: the allocation and the type and task counts.
   Its x and the loads come from the scratch evaluation ([commit]). *)
let reassign t task machine =
  let ou = t.assign.(task) and ty = t.ttype.(task) in
  t.assign.(task) <- machine;
  let oi = (ou * t.p) + ty and ni = (machine * t.p) + ty in
  t.tcount.(oi) <- t.tcount.(oi) - 1;
  t.tcount.(ni) <- t.tcount.(ni) + 1;
  t.ntasks.(ou) <- t.ntasks.(ou) - 1;
  t.ntasks.(machine) <- t.ntasks.(machine) + 1

(* Commit the scratch evaluation in place: write the new x values and
   fold each touched machine's aggregated delta into its compensated
   load and into the total. *)
let commit t =
  for k = 0 to t.n_aff - 1 do
    let j = t.aff.(k) in
    t.x.(j) <- t.xnew.(j)
  done;
  for k = 0 to t.n_touched - 1 do
    let v = t.touched.(k) in
    add_load t v t.mdelta.(v);
    add_load t t.m t.mdelta.(v)
  done;
  t.period_valid <- false

(* A commit would leave the assignment journal's load snapshots stale,
   so moves and swaps are refused while assignments can still be undone. *)
let apply_move t ~task ~machine =
  if t.ja_len > 0 then invalid_arg "State.apply_move: assignments are journalled";
  eval_move t ~task ~machine;
  reassign t task machine;
  commit t

let apply_swap t ~u ~v =
  if t.ja_len > 0 then invalid_arg "State.apply_swap: assignments are journalled";
  eval_swap t ~u ~v;
  for k = 0 to t.n_aff - 1 do
    let j = t.aff.(k) in
    let uj = t.assign.(j) in
    if uj = u then reassign t j v else if uj = v then reassign t j u
  done;
  commit t

(* ------------------------------------------------------------------ *)
(* Consistency check (debug/test)                                      *)
(* ------------------------------------------------------------------ *)

let check ?(tol = 1e-9) t =
  let wf = Instance.workflow t.inst in
  let fail fmt = Printf.ksprintf failwith fmt in
  let close a b = Float.abs (a -. b) <= tol *. Float.max 1.0 (Float.abs b) in
  let x_ref = Array.make t.n nan in
  Array.iter
    (fun i ->
      if t.assign.(i) >= 0 then begin
        let u = t.assign.(i) in
        let downstream =
          match Workflow.successor wf i with
          | None -> 1.0
          | Some j ->
            if t.assign.(j) < 0 then
              fail "State.check: task %d assigned but its successor %d is not" i j
            else x_ref.(j)
        in
        x_ref.(i) <- downstream /. (1.0 -. Instance.f t.inst i u);
        if not (close t.x.(i) x_ref.(i)) then
          fail "State.check: x(%d) drifted: %.17g vs %.17g" i t.x.(i) x_ref.(i)
      end)
    t.order;
  let acc = Array.init t.m (fun _ -> Kahan.create ()) in
  for i = 0 to t.n - 1 do
    let u = t.assign.(i) in
    if u >= 0 then Kahan.add acc.(u) (x_ref.(i) *. Instance.w t.inst i u)
  done;
  let ref_count = Array.make (t.m * t.p) 0 and ref_ntasks = Array.make t.m 0 in
  for i = 0 to t.n - 1 do
    let u = t.assign.(i) in
    if u >= 0 then begin
      let ti = (u * t.p) + Workflow.ttype wf i in
      ref_count.(ti) <- ref_count.(ti) + 1;
      ref_ntasks.(u) <- ref_ntasks.(u) + 1
    end
  done;
  let max_load = ref 0.0 in
  for u = 0 to t.m - 1 do
    let expect = Kahan.total acc.(u) +. t.extra.(u) in
    let got = load t u in
    if not (close got expect) then
      fail "State.check: load(%d) drifted: %.17g vs %.17g" u got expect;
    if got > !max_load then max_load := got;
    if t.ntasks.(u) <> ref_ntasks.(u) then
      fail "State.check: ntasks(%d) = %d, expected %d" u t.ntasks.(u) ref_ntasks.(u);
    for ty = 0 to t.p - 1 do
      let ti = (u * t.p) + ty in
      if t.tcount.(ti) <> ref_count.(ti) then
        fail "State.check: tcount(%d, %d) = %d, expected %d" u ty t.tcount.(ti)
          ref_count.(ti)
    done
  done;
  if t.period_valid && not (close t.period !max_load) then
    fail "State.check: cached period %.17g, loads say %.17g" t.period !max_load;
  let tsum = ref 0.0 in
  for u = 0 to t.m - 1 do
    tsum := !tsum +. load t u
  done;
  if not (close (load t t.m) !tsum) then
    fail "State.check: total load drifted: %.17g vs %.17g" (load t t.m) !tsum
