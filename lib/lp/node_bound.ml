module Instance = Mf_core.Instance
module Workflow = Mf_core.Workflow
module Mapping = Mf_core.Mapping
module FS = Simplex.Float_solver

type t = {
  inst : Instance.t;
  rule : Mapping.rule;
  n : int;
  m : int;
  succ : int array; (* successor task, or -1 for a sink *)
  ty : int array; (* task -> type *)
  committed : bool array;
  x : float array; (* product count, valid where committed *)
  load : float array; (* load.(u): sum of x*w over tasks committed to u *)
  lock : int array; (* lock.(u): type machine u is committed to, or -1 *)
  (* Journal, one frame per push: task, machine, machine's previous load
     (restored verbatim on pop so a push/pop round trip is bit-exact),
     and whether this push locked the machine. *)
  mutable frames : (int * int * float * bool) list;
  mutable depth : int;
  (* basis_stack.(d): optimal basis of the last LP solved at depth d.
     Nodes at equal depth share the uncommitted task set (the search
     assigns tasks in a fixed order), so their LPs have identical shape
     and the sibling's basis is a strong warm start.  The solver
     re-optimizes from any basis — a column the current locks empty is
     repaired by an artificial, an infeasible vertex gets a phase 1
     from there — so staleness costs pivots, never soundness. *)
  basis_stack : int array option array;
  (* sol_stack.(d): primal optimum, deflated bound and journal tail of
     the last LP solved at depth d.  The journal tail (compared
     physically) identifies the exact node the record belongs to, so a
     child can tell its own parent's solve from a stale sibling-subtree
     one.  When the parent's optimum puts zero rate on the pushed task's
     columns off its chosen machine, the child reuses the parent's bound
     without solving.  That check ignores the other tasks' columns a push
     kills by locking its machine (to the task's type under Specialized,
     wholly under One_to_one), where the parent's optimum may still
     carry rate; the reused bound stays sound, since the child's LP only
     loses columns, but it can be looser than the child's own optimum. *)
  sol_stack : (float array * float * (int * int * float * bool) list) option array;
  mutable solves : int;
  mutable reuses : int;
  mutable warm : int;
  mutable pivots : int;
  mutable factz : int;
  mutable fallbacks : int;
  mutable repairs : int;
}

type stats = {
  solves : int;
  reuses : int;
  warm_starts : int;
  pivots : int;
  factorizations : int;
  fallbacks : int;
  repairs : int;
}

let zero_stats =
  {
    solves = 0;
    reuses = 0;
    warm_starts = 0;
    pivots = 0;
    factorizations = 0;
    fallbacks = 0;
    repairs = 0;
  }

let add_stats a b =
  {
    solves = a.solves + b.solves;
    reuses = a.reuses + b.reuses;
    warm_starts = a.warm_starts + b.warm_starts;
    pivots = a.pivots + b.pivots;
    factorizations = a.factorizations + b.factorizations;
    fallbacks = a.fallbacks + b.fallbacks;
    repairs = a.repairs + b.repairs;
  }

let create ~rule inst =
  let n = Instance.task_count inst and m = Instance.machines inst in
  let wf = Instance.workflow inst in
  let succ =
    Array.init n (fun i -> match Workflow.successor wf i with Some s -> s | None -> -1)
  in
  {
    inst;
    rule;
    n;
    m;
    succ;
    ty = Array.init n (fun i -> Workflow.ttype wf i);
    committed = Array.make n false;
    x = Array.make n 0.0;
    load = Array.make m 0.0;
    lock = Array.make m (-1);
    frames = [];
    depth = 0;
    basis_stack = Array.make (n + 1) None;
    sol_stack = Array.make (n + 1) None;
    solves = 0;
    reuses = 0;
    warm = 0;
    pivots = 0;
    factz = 0;
    fallbacks = 0;
    repairs = 0;
  }

let push t ~task ~machine =
  if t.committed.(task) then invalid_arg "Node_bound.push: task already committed";
  let s = t.succ.(task) in
  if s >= 0 && not t.committed.(s) then
    invalid_arg "Node_bound.push: successor not committed (pushes must be backward)";
  let denom = 1.0 -. Instance.f t.inst task machine in
  let x = (if s >= 0 then t.x.(s) else 1.0) /. denom in
  t.committed.(task) <- true;
  t.x.(task) <- x;
  let prev_load = t.load.(machine) in
  t.load.(machine) <- prev_load +. (x *. Instance.w t.inst task machine);
  let locked_now = t.lock.(machine) < 0 in
  if locked_now then t.lock.(machine) <- t.ty.(task);
  t.frames <- (task, machine, prev_load, locked_now) :: t.frames;
  t.depth <- t.depth + 1

let pop t =
  match t.frames with
  | [] -> invalid_arg "Node_bound.pop: empty journal"
  | (task, machine, prev_load, locked_now) :: rest ->
    t.committed.(task) <- false;
    t.load.(machine) <- prev_load;
    if locked_now then t.lock.(machine) <- -1;
    t.frames <- rest;
    t.depth <- t.depth - 1

(* Under the given rule, may an uncommitted task [i] run (at all) on
   machine [u] in some completion of the current prefix?  [false] means
   the rate column y(i,u) is fixed to zero in the restricted LP:
   - specialized: a machine hosting committed tasks of type [ty] serves
     only type [ty];
   - one-to-one: a machine hosting a committed task hosts nothing else;
   - general: no restriction. *)
let compatible t i u =
  match t.rule with
  | Mapping.General -> true
  | Mapping.Specialized -> t.lock.(u) < 0 || t.lock.(u) = t.ty.(i)
  | Mapping.One_to_one -> t.lock.(u) < 0

(* Tiny positive floor under rho: a throughput this small (or an
   infeasible/stalled solve) yields no usable bound. *)
let rho_floor = 1e-12

(* Deflation covering the float solver's optimality tolerance, so the
   reported value stays a true lower bound on every completion's period. *)
let safety = 1.0 -. 1e-6

(* Enumerate free-machine type assignments only when at most this many
   machines are still unlocked: 3^free_cap variants per evaluation,
   almost always cut to one by the cutoff short-circuit. *)
let free_cap = 2

(* Combinatorial strengthening of a fully-locked state (every machine
   dedicated to a type — directly, or inside an enumeration variant):
   the LP splits tasks fractionally inside each type group, but a
   completion puts each task wholly on one machine, so pigeonhole
   arguments on per-task minimum work recover part of the integrality
   gap.  For each group (type [ty], its [q] dedicated machines, [k]
   uncommitted tasks):

   - each uncommitted task [i] contributes at least
     [s_i = x_lb(i) * min_u w(i,u)] busy time per product to whichever
     group machine hosts it, where [x_lb(i)] scales the committed
     successor's exact product count by [1/(1 - f_min)] per uncommitted
     task on the path down — a lower bound on [i]'s product count under
     every completion;
   - [k > q]: two of the [q+1] largest contributions share a machine,
     so some machine carries at least the committed-load minimum plus
     the two smallest of those [q+1];
   - some machine hosts at least [ceil(k/q)] tasks, so it carries at
     least the sum of the [ceil(k/q)] smallest contributions;
   - a group with tasks but no machine admits no completion at all.

   Returns a sound period lower bound (the period is the busiest
   machine's cycle time), [infinity] when the lock pattern is
   infeasible, [0.0] when it has nothing to add. *)
let locked_bound t =
  let n = t.n and m = t.m in
  let p = Instance.type_count t.inst in
  let x_lb = Array.make n 0.0 in
  let rec xv i =
    if x_lb.(i) > 0.0 then x_lb.(i)
    else begin
      let sc = t.succ.(i) in
      let base = if sc < 0 then 1.0 else if t.committed.(sc) then t.x.(sc) else xv sc in
      let fmin = ref 1.0 in
      for u = 0 to m - 1 do
        if t.lock.(u) = t.ty.(i) then fmin := Float.min !fmin (Instance.f t.inst i u)
      done;
      let v = base /. (1.0 -. !fmin) in
      x_lb.(i) <- v;
      v
    end
  in
  let sizes = Array.make p [] in
  let counts = Array.make p 0 in
  for i = 0 to n - 1 do
    if not t.committed.(i) then begin
      let ty = t.ty.(i) in
      let wmin = ref infinity in
      for u = 0 to m - 1 do
        if t.lock.(u) = ty then wmin := Float.min !wmin (Instance.w t.inst i u)
      done;
      let s = xv i *. !wmin in
      sizes.(ty) <- s :: sizes.(ty);
      counts.(ty) <- counts.(ty) + 1
    end
  done;
  let best = ref 0.0 in
  (try
     for ty = 0 to p - 1 do
       let k = counts.(ty) in
       if k > 0 then begin
         let q = ref 0 and lmin = ref infinity in
         for u = 0 to m - 1 do
           if t.lock.(u) = ty then begin
             incr q;
             lmin := Float.min !lmin t.load.(u)
           end
         done;
         if !q = 0 then raise Exit;
         if k > !q then begin
           (* ascending contribution sizes *)
           let a = Array.of_list sizes.(ty) in
           Array.sort compare a;
           (* two smallest of the q+1 largest *)
           let pair = a.(k - !q - 1) +. a.(k - !q) in
           (* the ceil(k/q) smallest *)
           let tmin = (k + !q - 1) / !q in
           let sum = ref 0.0 in
           for j = 0 to tmin - 1 do
             sum := !sum +. a.(j)
           done;
           let b = (!lmin +. Float.max pair !sum) *. safety in
           if b > !best then best := b
         end
       end
     done
   with Exit -> best := infinity);
  !best

(* Does the parent's stored optimum assign (essentially) zero rate to
   the pushed task's columns off its chosen machine?  If so the parent's
   bound carries over.  It is exact when the push locked nothing new; a
   push that locks its machine also kills other tasks' columns there,
   which this does not check, and then the parent's bound is sound (the
   child's LP only loses columns) but possibly looser than a fresh
   solve's. *)
let parent_solves_child t =
  match t.frames with
  | [] -> None
  | (task, machine, _, _) :: parent_frames -> (
    match t.sol_stack.(t.depth - 1) with
    | Some (psol, pbound, pframes) when pframes == parent_frames ->
      (* parent's slot of [task]: uncommitted tasks are enumerated in
         increasing id, and the parent's uncommitted set is the current
         one plus [task]. *)
      let ps = ref 0 in
      for j = 0 to task - 1 do
        if not t.committed.(j) then incr ps
      done;
      let reusable = ref true in
      for u = 0 to t.m - 1 do
        if u <> machine && Float.abs psol.((!ps * t.m) + u) > 1e-12 then reusable := false
      done;
      if !reusable then Some (psol, pbound, !ps) else None
    | _ -> None)

(* Starting basis for a solve at the current depth: the last optimal
   basis recorded here or, failing that, the depth above's mapped into
   this LP.  Every node at depth d commits the same task (the search
   assigns tasks in a fixed order), so the map is fixed: drop that
   task's rate-column block and its flow row's artificial, and shift the
   ids past them.  The mapped basis can come out a position short or
   long; the solver repairs a missing position and drops a surplus. *)
let start_basis t ~nu =
  match (t.basis_stack.(t.depth), t.frames) with
  | (Some _ as b), _ -> b
  | None, [] -> None
  | None, (task, _, _, _) :: _ -> (
    match t.basis_stack.(t.depth - 1) with
    | None -> None
    | Some pbasis ->
      let m = t.m in
      (* the task's slot in the parent LP *)
      let ps = ref 0 in
      for j = 0 to task - 1 do
        if not t.committed.(j) then incr ps
      done;
      let ps = !ps in
      let pcols = ((nu + 1) * m) + 1 + m and cols = (nu * m) + 1 + m in
      let map j =
        if j < (nu + 1) * m then
          let s = j / m in
          if s < ps then j else if s = ps then -1 else j - m
        else if j < pcols then j - m
        else
          let r = j - pcols in
          if r < ps then cols + r else if r = ps then -1 else cols + r - 1
      in
      Some (Array.of_list (List.filter (fun j -> j >= 0) (List.map map (Array.to_list pbasis)))))

let bound t ~cutoff =
  let m = t.m and nu = t.n - t.depth in
  let prefix =
    { Splitting.committed = t.committed; x = t.x; load = t.load; allowed = compatible t }
  in
  let solve_current () =
    t.solves <- t.solves + 1;
    let { Splitting.a; b; c } = Splitting.build ~prefix t.inst in
    let iter_budget = 200 + (20 * (nu + m)) in
    let detail =
      match start_basis t ~nu with
      | Some basis ->
        t.warm <- t.warm + 1;
        FS.solve_sparse_from_basis ~iter_budget ~a ~b ~c ~basis ()
      | None -> FS.solve_sparse_detailed ~iter_budget ~a ~b ~c ()
    in
    t.pivots <- t.pivots + detail.FS.iterations;
    t.factz <- t.factz + detail.FS.factorizations;
    t.fallbacks <- t.fallbacks + detail.FS.fallbacks;
    t.repairs <- t.repairs + detail.FS.repairs;
    (match detail.FS.outcome with
    | FS.Optimal _ -> t.basis_stack.(t.depth) <- Some detail.FS.basis
    | _ -> ());
    detail
  in
  let free = ref 0 in
  for u = 0 to m - 1 do
    if t.lock.(u) < 0 then incr free
  done;
  if t.rule = Mapping.Specialized && !free >= 1 && !free <= free_cap then begin
    (* Enumerated bound: every specialized completion dedicates each
       still-free machine to a single type (or leaves it idle, which is
       feasible under any dedication), so the minimum of the locked LPs
       over all type assignments of the free machines lower-bounds every
       completion.  Each variant forbids the fractional multi-type
       sharing of free machines that makes the plain relaxation loose.
       Infeasible or zero-throughput variants admit no completion that
       beats any finite incumbent and drop out of the minimum.  A
       variant whose bound already fails [cutoff] decides the node (no
       prune) and short-circuits the enumeration: the returned value is
       then only a no-prune witness, not a bound for all completions. *)
    let fm = Array.make !free (-1) in
    let k = ref 0 in
    for u = 0 to m - 1 do
      if t.lock.(u) < 0 then begin
        fm.(!k) <- u;
        incr k
      end
    done;
    let p = Instance.type_count t.inst in
    let exception No_prune of float in
    let best = ref infinity in
    let rec assign i =
      if i = !free then begin
        let comb = locked_bound t in
        let v =
          if comb >= cutoff then comb
          else begin
            let d = solve_current () in
            let lp =
              match d.FS.outcome with
              | FS.Optimal (_, obj) when -.obj > rho_floor -> 1.0 /. -.obj *. safety
              | FS.Optimal _ | FS.Infeasible -> infinity
              | _ -> 0.0
            in
            Float.max lp comb
          end
        in
        if v < cutoff then raise (No_prune v);
        if v < !best then best := v
      end
      else
        for ty = 0 to p - 1 do
          t.lock.(fm.(i)) <- ty;
          assign (i + 1);
          t.lock.(fm.(i)) <- -1
        done
    in
    match assign 0 with
    | () -> !best
    | exception No_prune v ->
      for i = 0 to !free - 1 do
        t.lock.(fm.(i)) <- -1
      done;
      v
  end
  else begin
    let comb =
      if t.rule = Mapping.Specialized && !free = 0 then locked_bound t else 0.0
    in
    if comb >= cutoff then comb
    else
    match parent_solves_child t with
    | Some (psol, pbound, ptask_slot) ->
      t.reuses <- t.reuses + 1;
      (* Re-index the parent optimum as this node's solution so the next
         generation can reuse it in turn: drop the pushed task's column
         block (its rates are zero except the chosen machine's, which the
         committed region now accounts for) and shift rho and the
         slacks. *)
      let sol = Array.make ((nu * m) + 1 + m) 0.0 in
      for s = 0 to nu - 1 do
        let ps = if s < ptask_slot then s else s + 1 in
        Array.blit psol (ps * m) sol (s * m) m
      done;
      Array.blit psol ((nu + 1) * m) sol (nu * m) (1 + m);
      t.sol_stack.(t.depth) <- Some (sol, pbound, t.frames);
      Float.max pbound comb
    | None -> (
      let detail = solve_current () in
      match detail.FS.outcome with
      | FS.Optimal (x, obj) when -.obj > rho_floor ->
        let lb = 1.0 /. -.obj *. safety in
        t.sol_stack.(t.depth) <- Some (x, lb, t.frames);
        Float.max lb comb
      | _ -> comb)
  end

let stats (t : t) =
  {
    solves = t.solves;
    reuses = t.reuses;
    warm_starts = t.warm;
    pivots = t.pivots;
    factorizations = t.factz;
    fallbacks = t.fallbacks;
    repairs = t.repairs;
  }
