module Instance = Mf_core.Instance
module Workflow = Mf_core.Workflow
module Mapping = Mf_core.Mapping
module Period = Mf_core.Period
module Registry = Mf_heuristics.Registry
module State = Mf_eval.State
module Pool = Mf_parallel.Pool

type stats = {
  bound_prunes : int;
  dominance_prunes : int;
  dominance_states : int;
  symmetry_skips : int;
  best_at_node : int;
  root_subtrees : int;
  lp_solves : int;
  lp_prunes : int;
  nogood_records : int;
}

let zero_stats =
  {
    bound_prunes = 0;
    dominance_prunes = 0;
    dominance_states = 0;
    symmetry_skips = 0;
    best_at_node = 0;
    root_subtrees = 1;
    lp_solves = 0;
    lp_prunes = 0;
    nogood_records = 0;
  }

(* Per-node LP bound oracle, injected by callers that can pay for an LP
   stack — this library deliberately does not depend on [Mf_lp], so the
   oracle arrives as three closures (see [Mf_lp.Node_bound] for the
   canonical implementation).  The contract: after a sequence of
   [nb_push] calls mirroring the search's assignment prefix, [nb_bound]
   returns a sound lower bound on the period of every completion of that
   prefix (0.0 when it has nothing to say), and [nb_pop] undoes the most
   recent push.  The bound must be a deterministic function of the
   oracle's own push/pop/bound calls: each subtree search gets a fresh
   oracle, so determinism across [--jobs] values relies on it. *)
type node_bound = {
  nb_push : task:int -> machine:int -> unit;
  nb_pop : unit -> unit;
  nb_bound : cutoff:float -> float;
  nb_pivots : unit -> int;
}

type result = {
  mapping : Mf_core.Mapping.t;
  period : float;
  optimal : bool;
  nodes : int;
  stats : stats;
}

(* Static lower bound: the cheapest possible contribution of each task,
   using the most optimistic downstream failure rates. *)
let min_contribution inst =
  let n = Instance.task_count inst and m = Instance.machines inst in
  let wf = Instance.workflow inst in
  let min_x = Array.make n 0.0 in
  Array.iter
    (fun i ->
      let fmin = ref infinity in
      for u = 0 to m - 1 do
        fmin := Float.min !fmin (Instance.f inst i u)
      done;
      let downstream = match Workflow.successor wf i with None -> 1.0 | Some j -> min_x.(j) in
      min_x.(i) <- downstream /. (1.0 -. !fmin))
    (Workflow.backward_order wf);
  Array.init n (fun i ->
      let best = ref infinity in
      for u = 0 to m - 1 do
        best := Float.min !best (min_x.(i) *. Instance.w inst i u)
      done;
      !best)

(* Greedy injective assignment seeding the one-to-one search: backward
   tasks, each to the unused machine with the smallest x*w. *)
let greedy_one_to_one inst =
  let m = Instance.machines inst in
  if m < Instance.task_count inst then
    invalid_arg "Dfs.greedy_one_to_one: fewer machines than tasks";
  let st = State.create inst in
  Array.iter
    (fun task ->
      let best = ref (-1) and best_cost = ref infinity in
      for u = 0 to m - 1 do
        if State.tasks_on st u = 0 then begin
          let cost = State.x_candidate st ~task ~machine:u *. Instance.w inst task u in
          if cost < !best_cost then begin
            best := u;
            best_cost := cost
          end
        end
      done;
      State.assign_task_with st ~extra:0.0 ~task ~machine:!best)
    (Workflow.backward_order (Instance.workflow inst));
  State.mapping st

let check_rule_feasible rule inst =
  match rule with
  | Mapping.Specialized ->
    if Instance.machines inst < Instance.type_count inst then
      invalid_arg "Dfs: fewer machines than task types - no specialized mapping exists"
  | Mapping.One_to_one ->
    if Instance.machines inst < Instance.task_count inst then
      invalid_arg "Dfs: fewer machines than tasks - no one-to-one mapping exists"
  | Mapping.General -> ()

(* Every task on the single machine minimising the resulting penalised
   period — the only heuristic-free general mapping always available, used
   when m < p leaves the specialized heuristics infeasible. *)
let best_single_machine ~setup inst =
  let n = Instance.task_count inst and m = Instance.machines inst in
  let best = ref None in
  for u = 0 to m - 1 do
    let mp = Mapping.of_array inst (Array.make n u) in
    let p = Period.with_setup inst mp ~setup in
    match !best with
    | Some (_, bp) when bp <= p -> ()
    | _ -> best := Some (mp, p)
  done;
  match !best with Some r -> r | None -> assert false

(* The one per-rule seed, the best of [heuristics] where they apply.
   Heuristic mappings are specialized, hence valid general mappings
   paying no setup; one-to-one needs its own greedy seed because no
   registry heuristic is injective.  The count is the mappings scored. *)
let seed_of heuristics ?seed ~setup rule inst =
  match rule with
  | Mapping.One_to_one ->
    let mp = greedy_one_to_one inst in
    ((mp, Period.period inst mp), 1)
  | Mapping.General when Instance.machines inst < Instance.type_count inst ->
    (best_single_machine ~setup inst, Instance.machines inst)
  | Mapping.Specialized | Mapping.General ->
    (Registry.best_of ?seed heuristics inst, List.length heuristics)

let seed_incumbent ?seed ~setup rule inst = seed_of Registry.all ?seed ~setup rule inst

(* ------------------------------------------------------------------ *)
(* PR-2 engine: static suffix bound only.  Kept as the bench baseline   *)
(* ("unpruned" reference) and as an independent differential witness.   *)
(* ------------------------------------------------------------------ *)

let solve_static ?(node_budget = 20_000_000) ?(setup = 0.0) ~rule inst =
  if setup < 0.0 then invalid_arg "Dfs.solve_static: negative setup time";
  let n = Instance.task_count inst and m = Instance.machines inst in
  let wf = Instance.workflow inst in
  check_rule_feasible rule inst;
  let order = Workflow.backward_order wf in
  let contrib_lb = min_contribution inst in
  (* Largest static lower bound over the tasks assigned at depth >= k. *)
  let suffix_lb = Array.make (n + 1) 0.0 in
  for k = n - 1 downto 0 do
    suffix_lb.(k) <- Float.max suffix_lb.(k + 1) contrib_lb.(order.(k))
  done;
  (* The static engine's original incumbent, kept so this stays the
     bench baseline it was: best of H2/H3/H4w only. *)
  let (seed_mp, seed_p), _ = seed_of [ Registry.H2; Registry.H3; Registry.H4w ] ~setup rule inst in
  let best_mp = ref seed_mp and best_p = ref seed_p in
  (* x, allocation and load bookkeeping live in the shared incremental
     state; assignments are journalled and backtracked with State.undo. *)
  let st = State.create inst in
  (* For Specialized: type a machine is locked to (-1 = free); for
     One_to_one: any non-negative value marks the machine taken; unused for
     General. *)
  let dedicated = Array.make m (-1) in
  (* Distinct types currently hosted per machine (General rule only, for
     the reconfiguration penalty). *)
  let hosted_types = Array.make m [] in
  (* Cyclic steady-state convention (see Period.with_setup): a machine
     ending up with k >= 2 distinct types pays k switches per period.
     Charged incrementally as types arrive: the second distinct type costs
     2*setup (the switch to it and the switch closing the cycle), each
     further one costs setup — totals telescope to k*setup. *)
  let setup_cost u ty =
    if rule <> Mapping.General || setup = 0.0 then 0.0
    else
      match hosted_types.(u) with
      | [] -> 0.0
      | tys when List.mem ty tys -> 0.0
      | [ _ ] -> 2.0 *. setup
      | _ -> setup
  in
  let nodes = ref 0 in
  let exhausted = ref false in
  let machine_allowed u ty =
    match rule with
    | Mapping.General -> true
    | Mapping.Specialized -> dedicated.(u) < 0 || dedicated.(u) = ty
    | Mapping.One_to_one -> dedicated.(u) < 0
  in
  let rec go k current_max =
    if !nodes >= node_budget then exhausted := true
    else if k = n then begin
      if current_max < !best_p then begin
        best_p := current_max;
        best_mp := State.mapping st
      end
    end
    else begin
      let task = order.(k) in
      let ty = Workflow.ttype wf task in
      let candidates = ref [] in
      for u = m - 1 downto 0 do
        if machine_allowed u ty then begin
          (* The reconfiguration penalty is folded into the load via
             [~extra], so deeper levels and the leaf period see it. *)
          let extra = setup_cost u ty in
          let exec = State.try_assign_with st ~extra ~task ~machine:u in
          if exec < !best_p then candidates := (exec, u, extra) :: !candidates
        end
      done;
      let sorted = List.sort (fun (e1, _, _) (e2, _, _) -> Float.compare e1 e2) !candidates in
      List.iter
        (fun (exec, u, extra) ->
          if (not !exhausted) && exec < !best_p
             && Float.max (Float.max current_max exec) suffix_lb.(k + 1) < !best_p
          then begin
            incr nodes;
            let saved_ded = dedicated.(u) in
            let saved_types = hosted_types.(u) in
            (match rule with
            | Mapping.Specialized | Mapping.One_to_one -> dedicated.(u) <- ty
            | Mapping.General ->
              if not (List.mem ty hosted_types.(u)) then
                hosted_types.(u) <- ty :: hosted_types.(u));
            State.assign_task_with st ~extra ~task ~machine:u;
            go (k + 1) (Float.max current_max exec);
            State.undo st;
            dedicated.(u) <- saved_ded;
            hosted_types.(u) <- saved_types
          end)
        sorted
    end
  in
  go 0 0.0;
  { mapping = !best_mp; period = !best_p; optimal = not !exhausted; nodes = !nodes; stats = zero_stats }

(* ------------------------------------------------------------------ *)
(* Branch-and-bound engine: incremental refined bounds, dominance       *)
(* memoization, machine symmetry breaking, deterministic root splitting *)
(* ------------------------------------------------------------------ *)

(* Read-only per-solve context, shared by every root subtree (and safe to
   share across domains: nothing here is mutated after construction). *)
type ctx = {
  inst : Instance.t;
  rule : Mapping.rule;
  setup : float;
  n : int;
  m : int;
  fm : float;
  wf : Workflow.t;
  order : int array;  (* backward assignment order *)
  pos : int array;  (* pos.(order.(k)) = k *)
  preds : int array array;
  mpp : int array;  (* max position over predecessors; -1 if none *)
  contrib_lb : float array;  (* static per-task lower bounds *)
  ratio_min : float array;  (* min_u w(i,u) / (1 - f(i,u)) *)
  rem0 : float;  (* sum of contrib_lb *)
  rmax0 : float;  (* max of contrib_lb *)
  classes : int array;  (* machine symmetry classes (Symmetry) *)
  cands : int array array;  (* type -> machines by increasing static w *)
  dominance : bool;
  symmetry : bool;
  (* Factory, not instance: every search gets a fresh oracle so parallel
     subtrees never share LP state. *)
  lp_factory : (unit -> node_bound) option;
  (* Node-equivalents one oracle simplex pivot costs against the budget
     (0 = pivots are free, the plain-node accounting).  Per-subtree and
     derived from [nb_pivots] deltas, so the charge is a pure function
     of each subtree's own search — [--jobs] identity holds. *)
  pivot_charge : int;
  (* Cooperative cancellation: polled between nodes; a set token
     unwinds the search and [solve] raises [Pool.Cancelled]. *)
  cancel : Pool.token option;
}

let make_ctx ~rule ~setup ~dominance ~symmetry ~node_bound ~pivot_charge ~cancel inst =
  let n = Instance.task_count inst and m = Instance.machines inst in
  let wf = Instance.workflow inst in
  let order = Workflow.backward_order wf in
  let pos = Array.make n 0 in
  Array.iteri (fun k t -> pos.(t) <- k) order;
  let preds = Array.init n (fun i -> Array.of_list (Workflow.predecessors wf i)) in
  let mpp =
    Array.init n (fun i -> Array.fold_left (fun acc p -> max acc pos.(p)) (-1) preds.(i))
  in
  let contrib_lb = min_contribution inst in
  let ratio_min =
    Array.init n (fun i ->
        let best = ref infinity in
        for u = 0 to m - 1 do
          let r = Instance.w inst i u /. (1.0 -. Instance.f inst i u) in
          if r < !best then best := r
        done;
        !best)
  in
  let rem0 = Array.fold_left ( +. ) 0.0 contrib_lb in
  let rmax0 = Array.fold_left Float.max 0.0 contrib_lb in
  let classes = Symmetry.machine_classes inst in
  let cands =
    Array.init (Instance.type_count inst) (fun ty ->
        let ms = Array.init m Fun.id in
        Array.sort
          (fun u v ->
            let d = Float.compare (Instance.w_of_type inst ty u) (Instance.w_of_type inst ty v) in
            if d <> 0 then d else compare u v)
          ms;
        ms)
  in
  {
    inst;
    rule;
    setup;
    n;
    m;
    fm = float_of_int m;
    wf;
    order;
    pos;
    preds;
    mpp;
    contrib_lb;
    ratio_min;
    rem0;
    rmax0;
    classes;
    cands;
    dominance;
    symmetry;
    lp_factory = node_bound;
    pivot_charge;
    cancel;
  }

type search = {
  ctx : ctx;
  st : State.t;
  dedicated : int array;
  hosted : int list array;
  lb_ref : float array;  (* refined per-task lower bounds (journalled) *)
  class_rep : int array;  (* scratch: class -> lowest unused member *)
  (* The subtree's own incumbent: no other search reads it, so every
     prune is a pure function of (instance, prefix, seed, budget). *)
  mutable local_best_p : float;
  mutable local_best : int array option;
  mutable nodes : int;
  budget : int;
  (* Node-equivalents charged for oracle pivots (pivot_charge > 0 only);
     [nodes + charged] is what the budget check reads. *)
  mutable charged : int;
  mutable last_pivots : int;
  mutable exhausted : bool;
  mutable stop : bool;
  (* Machines this subtree is pinned to for the first [Array.length pins]
     depths — the deterministic root split. *)
  pins : int array;
  use_dominance : bool;
  table : (string, float array list ref) Hashtbl.t;
  mutable table_states : int;
  mutable bound_prunes : int;
  mutable dom_prunes : int;
  mutable sym_skips : int;
  mutable best_at : int;
  (* Per-node LP bound oracle (one per search) and its counters. *)
  nb : node_bound option;
  mutable lp_solves : int;
  mutable lp_prunes : int;
  mutable nogood_records : int;
  sigbuf : Buffer.t;
  (* Per-depth scratch, preallocated so expand/child allocate nothing:
     candidate buffers (row k of an n x m matrix, filled by [collect]),
     the saved predecessor bounds journal, and a 2-float out-param slot
     for the refine loop.
     Hot-path allocation is poison under OCaml 5 parallelism — every
     minor collection synchronises all domains. *)
  cand_exec : float array;
  cand_u : int array;
  saved_lb : float array array;  (* depth k -> one slot per pred of order.(k) *)
  fscratch : float array;  (* [| rmax'; rem' |] *)
  (* The recursion's (cmax, rmax, rem) triple per depth.  Kept in flat
     float arrays instead of function arguments: without flambda every
     float argument is boxed at every call, and bnb/expand/child run once
     per node. *)
  path_cmax : float array;
  path_rmax : float array;
  path_rem : float array;
}

(* Caps keeping the dominance table's memory bounded: at most 8 stored
   load vectors per signature and 200k vectors overall (~tens of MB). *)
let table_entry_cap = 8
let table_state_cap = 200_000

let make_search ?(with_lp = true) ctx ~budget ~seed_p ~pins =
  {
    ctx;
    st = State.create ctx.inst;
    dedicated = Array.make ctx.m (-1);
    hosted = Array.make ctx.m [];
    lb_ref = Array.copy ctx.contrib_lb;
    class_rep = Array.make ctx.m (-1);
    local_best_p = seed_p;
    local_best = None;
    nodes = 0;
    budget;
    charged = 0;
    last_pivots = 0;
    exhausted = false;
    stop = false;
    pins;
    use_dominance = ctx.dominance;
    table = Hashtbl.create 4096;
    table_states = 0;
    bound_prunes = 0;
    dom_prunes = 0;
    sym_skips = 0;
    best_at = 0;
    nb = (if with_lp then Option.map (fun f -> f ()) ctx.lp_factory else None);
    lp_solves = 0;
    lp_prunes = 0;
    nogood_records = 0;
    sigbuf = Buffer.create 256;
    cand_exec = Array.make (ctx.n * ctx.m) 0.0;
    cand_u = Array.make (ctx.n * ctx.m) 0;
    saved_lb =
      Array.init ctx.n (fun k -> Array.make (Array.length ctx.preds.(ctx.order.(k))) 0.0);
    fscratch = Array.make 2 0.0;
    path_cmax =
      (let a = Array.make (ctx.n + 1) 0.0 in
       a);
    path_rmax =
      (let a = Array.make (ctx.n + 1) 0.0 in
       a.(0) <- ctx.rmax0;
       a);
    path_rem =
      (let a = Array.make (ctx.n + 1) 0.0 in
       a.(0) <- ctx.rem0;
       a);
  }

(* Candidate/bound admission: strict against the subtree's incumbent, so
   every mapping with a smaller period survives. *)
let[@inline] admits s v = v < s.local_best_p

let[@inline] rule_allows s u ty =
  match s.ctx.rule with
  | Mapping.General -> true
  | Mapping.Specialized -> s.dedicated.(u) < 0 || s.dedicated.(u) = ty
  | Mapping.One_to_one -> s.dedicated.(u) < 0

(* Same telescoping k*setup convention as solve_static. *)
let[@inline] setup_cost s u ty =
  let c = s.ctx in
  if c.rule <> Mapping.General || c.setup = 0.0 then 0.0
  else
    match s.hosted.(u) with
    | [] -> 0.0
    | tys when List.mem ty tys -> 0.0
    | [ _ ] -> 2.0 *. c.setup
    | _ -> c.setup

(* Fill row [k] of the candidate buffers with the machines [task] (of
   type [ty], at depth [k]) branches on and return their count: the
   pinned machine while [k] is within the pins, else every rule-allowed
   one, except unused machines other than their symmetry class's lowest,
   and only loads [exec] the incumbent admits.  The row is sorted by
   (exec, machine) in place: every exec is positive so plain comparison
   agrees with Float.compare, and the machine tiebreak makes the order
   total, hence schedule-independent. *)
let collect s k task ty =
  let c = s.ctx in
  if c.symmetry then begin
    Array.fill s.class_rep 0 c.m (-1);
    for u = 0 to c.m - 1 do
      if State.tasks_on s.st u = 0 then begin
        let cl = c.classes.(u) in
        if s.class_rep.(cl) < 0 then s.class_rep.(cl) <- u
      end
    done
  end;
  let cands = c.cands.(ty) in
  let base = k * c.m in
  let cnt = ref 0 in
  for idx = 0 to Array.length cands - 1 do
    let u = cands.(idx) in
    let picked = k >= Array.length s.pins || u = s.pins.(k) in
    if picked && rule_allows s u ty then begin
      (* Unused machines of one symmetry class are interchangeable:
         branch only on the lowest-index one. *)
      if c.symmetry && State.tasks_on s.st u = 0 && s.class_rep.(c.classes.(u)) <> u then
        s.sym_skips <- s.sym_skips + 1
      else begin
        let exec =
          State.try_assign_with s.st ~extra:(setup_cost s u ty) ~task ~machine:u
        in
        if admits s exec then begin
          let j = base + !cnt in
          s.cand_exec.(j) <- exec;
          s.cand_u.(j) <- u;
          incr cnt
        end
        else s.bound_prunes <- s.bound_prunes + 1
      end
    end
  done;
  let cnt = !cnt in
  for i = 1 to cnt - 1 do
    let e = s.cand_exec.(base + i) and u = s.cand_u.(base + i) in
    let j = ref (i - 1) in
    while
      !j >= 0
      &&
      let ej = s.cand_exec.(base + !j) in
      ej > e || (ej = e && s.cand_u.(base + !j) > u)
    do
      s.cand_exec.(base + !j + 1) <- s.cand_exec.(base + !j);
      s.cand_u.(base + !j + 1) <- s.cand_u.(base + !j);
      decr j
    done;
    s.cand_exec.(base + !j + 1) <- e;
    s.cand_u.(base + !j + 1) <- u
  done;
  cnt

(* Put [task] (of type [ty]) on machine [u]: its setup cost, read before
   the rule bookkeeping records the type on [u], then the journalled
   assignment. *)
let occupy s task ty u =
  let extra = setup_cost s u ty in
  (match s.ctx.rule with
  | Mapping.Specialized | Mapping.One_to_one -> s.dedicated.(u) <- ty
  | Mapping.General ->
    if not (List.mem ty s.hosted.(u)) then s.hosted.(u) <- ty :: s.hosted.(u));
  State.assign_task_with s.st ~extra ~task ~machine:u

let record_leaf s =
  let cmax = s.path_cmax.(s.ctx.n) in
  if cmax < s.local_best_p then begin
    s.local_best_p <- cmax;
    s.local_best <- Some (State.to_array s.st);
    s.best_at <- s.nodes
  end

let leq_all a b =
  let len = Array.length a in
  let rec go i = i >= len || (a.(i) <= b.(i) && go (i + 1)) in
  go 0

(* Canonical frontier signature at depth k.  The assigned set is fixed by
   k (backward order), so the key is: k, the x of every frontier task
   (assigned, with an unassigned predecessor — everything the remaining
   subproblem reads from the prefix), and the machines' (symmetry class,
   rule commitment) sequence after canonical sorting.  Loads are the
   value: within a (class, commitment) group they are sorted ascending, so
   componentwise <= between equal-key states certifies a dominating
   machine matching. *)
let signature s k =
  let c = s.ctx in
  let buf = s.sigbuf in
  Buffer.clear buf;
  (* 32-bit fields: 16-bit writes would silently wrap for n or m >= 65536
     and let distinct frontier states share a key, making the pruning
     unsound exactly when it must be exact. *)
  Buffer.add_int32_le buf (Int32.of_int k);
  for j = 0 to c.n - 1 do
    if c.pos.(j) < k && k <= c.mpp.(j) then
      Buffer.add_int64_le buf (Int64.bits_of_float (State.x s.st j))
  done;
  let recs =
    Array.init c.m (fun u ->
        let comm =
          match c.rule with
          | Mapping.Specialized -> [| s.dedicated.(u) + 1 |]
          | Mapping.One_to_one -> [| (if s.dedicated.(u) >= 0 then 1 else 0) |]
          | Mapping.General ->
            if c.setup > 0.0 then Array.of_list (List.sort compare s.hosted.(u)) else [||]
        in
        (c.classes.(u), comm, State.machine_load s.st u, u))
  in
  Array.sort
    (fun (c1, a1, l1, u1) (c2, a2, l2, u2) ->
      let d = compare c1 c2 in
      if d <> 0 then d
      else
        let d = Stdlib.compare a1 a2 in
        if d <> 0 then d
        else
          let d = Float.compare l1 l2 in
          if d <> 0 then d else compare u1 u2)
    recs;
  let loads = Array.make c.m 0.0 in
  Array.iteri
    (fun idx (cl, comm, load, _) ->
      loads.(idx) <- load;
      Buffer.add_int32_le buf (Int32.of_int cl);
      Buffer.add_int32_le buf (Int32.of_int (Array.length comm));
      Array.iter (fun v -> Buffer.add_int32_le buf (Int32.of_int v)) comm)
    recs;
  (Buffer.contents buf, loads)

(* Record a fully-explored state, evicting entries it dominates. *)
let table_note s entries key loads =
  if s.table_states < table_state_cap then
    match entries with
    | Some l ->
      let before = List.length !l in
      let kept = List.filter (fun v -> not (leq_all loads v)) !l in
      s.table_states <- s.table_states - (before - List.length kept);
      if List.length kept < table_entry_cap then begin
        l := loads :: kept;
        s.table_states <- s.table_states + 1
      end
      else l := kept
    | None ->
      Hashtbl.add s.table key (ref [ loads ]);
      s.table_states <- s.table_states + 1

(* The search proper.  The per-depth state (read at depth k, written for
   depth k+1 by [child]) lives in the path_* arrays:
   - path_cmax: max committed machine load;
   - path_rmax: running max over every refined per-task bound seen on
     this path (entries of already-assigned tasks stay valid: their bound
     is <= their contribution <= some load <= the final period);
   - path_rem:  sum of lb_ref over unassigned tasks.
   The child bound is max(cmax', rmax', (total_load' + rem') / m); the
   averaging term is the packing argument — all remaining work must fit
   somewhere, so the mean final load already bounds the period. *)
let rec bnb s k =
  if s.stop then ()
  else if s.nodes + s.charged >= s.budget then s.exhausted <- true
  else if
    match s.ctx.cancel with Some tok -> Pool.cancelled tok | None -> false
  then s.stop <- true
  else if k = s.ctx.n then record_leaf s
  else if not (s.use_dominance && k > 0) then begin
    if lp_check s k then expand s k
  end
  else begin
    let key, loads = signature s k in
    let entries = Hashtbl.find_opt s.table key in
    let dominated =
      match entries with Some l -> List.exists (fun v -> leq_all v loads) !l | None -> false
    in
    if dominated then s.dom_prunes <- s.dom_prunes + 1
    else if not (lp_check s k) then begin
      (* No-good: the LP certifies that no completion of this frontier
         improves the incumbent — exactly the contract of a recorded
         table state, so identical-key frontiers with componentwise >=
         loads now prune without re-solving the LP. *)
      table_note s entries key loads;
      s.nogood_records <- s.nogood_records + 1
    end
    else begin
      expand s k;
      (* Insert only complete subtrees: a budget-truncated exploration
         proves nothing about the states it would dominate. *)
      if not (s.exhausted || s.stop) then table_note s entries key loads
    end
  end

(* Per-node LP bound, evaluated after the dominance test (the signature
   is ~10x cheaper than a warm-started solve).  At the root there is
   nothing pushed and the global LP bound is the caller's [lower_bound]
   business, so k = 0 is exempt. *)
and lp_check s k =
  match s.nb with
  | None -> true
  | Some _ when k = 0 -> true
  | Some nb ->
    s.lp_solves <- s.lp_solves + 1;
    (* The cutoff is the incumbent: any oracle value below it cannot
       prune, which lets the oracle stop early; values at or above it
       must be sound bounds, and the prune below stays exact. *)
    let lpb = nb.nb_bound ~cutoff:s.local_best_p in
    (* Charge the evaluation's pivots (read as a delta of the oracle's
       cumulative counter) against the subtree budget — the deadline
       calibration's missing half: node-LP pivots are real work. *)
    if s.ctx.pivot_charge > 0 then begin
      let pv = nb.nb_pivots () in
      s.charged <- s.charged + ((pv - s.last_pivots) * s.ctx.pivot_charge);
      s.last_pivots <- pv
    end;
    admits s lpb
    ||
    (s.lp_prunes <- s.lp_prunes + 1;
     false)

and expand s k =
  let task = s.ctx.order.(k) in
  let ty = Workflow.ttype s.ctx.wf task in
  let cnt = collect s k task ty in
  for i = 0 to cnt - 1 do
    child s k task ty ((k * s.ctx.m) + i)
  done

and child s k task ty slot =
  if not (s.exhausted || s.stop) then begin
    let exec = s.cand_exec.(slot) in
    let u = s.cand_u.(slot) in
    if not (admits s exec) then s.bound_prunes <- s.bound_prunes + 1
    else begin
      let c = s.ctx in
      (* Assigning [task] fixes its product count, so each unassigned
         predecessor's bound tightens from the static optimum to
         x * ratio_min — O(preds) per child, journalled in [saved].  The
         running (rmax', rem') pair lives in the fscratch float array
         (unboxed stores); it is written into the depth-(k+1) path slots
         before recursing, so the deeper child reusing fscratch is
         harmless. *)
      let xc = State.x_candidate s.st ~task ~machine:u in
      let preds = c.preds.(task) in
      let np = Array.length preds in
      let saved = s.saved_lb.(k) in
      let fs = s.fscratch in
      fs.(0) <- Float.max s.path_rmax.(k) exec;
      fs.(1) <- s.path_rem.(k) -. s.lb_ref.(task);
      for pi = 0 to np - 1 do
        let i = preds.(pi) in
        saved.(pi) <- s.lb_ref.(i);
        let nb = xc *. c.ratio_min.(i) in
        let ob = s.lb_ref.(i) in
        if nb > ob then begin
          s.lb_ref.(i) <- nb;
          fs.(1) <- fs.(1) +. (nb -. ob);
          if nb > fs.(0) then fs.(0) <- nb
        end
      done;
      let rmax' = fs.(0) and rem' = fs.(1) in
      let cmax' = Float.max s.path_cmax.(k) exec in
      let saved_ded = s.dedicated.(u) in
      let saved_host = s.hosted.(u) in
      occupy s task ty u;
      let bound =
        Float.max (Float.max cmax' rmax') ((State.total_load s.st +. rem') /. c.fm)
      in
      if admits s bound then begin
        s.nodes <- s.nodes + 1;
        s.path_cmax.(k + 1) <- cmax';
        s.path_rmax.(k + 1) <- rmax';
        s.path_rem.(k + 1) <- rem';
        (* The LP oracle's journal mirrors the State journal: push the
           assignment for the subtree, pop on unwind. *)
        (match s.nb with Some nb -> nb.nb_push ~task ~machine:u | None -> ());
        bnb s (k + 1);
        (match s.nb with Some nb -> nb.nb_pop () | None -> ())
      end
      else s.bound_prunes <- s.bound_prunes + 1;
      State.undo s.st;
      s.dedicated.(u) <- saved_ded;
      s.hosted.(u) <- saved_host;
      for pi = 0 to np - 1 do
        s.lb_ref.(preds.(pi)) <- saved.(pi)
      done
    end
  end

(* Dominance auto-policy predicate: do two same-type tasks share a
   bit-identical failure row?  Equal product counts — the precondition for
   any frontier-signature collision — require exactly that (plus matching
   downstream structure, which this cheap necessary test ignores). *)
let has_repeated_task_profiles inst =
  let n = Instance.task_count inst and m = Instance.machines inst in
  let wf = Instance.workflow inst in
  let same i j =
    Workflow.ttype wf i = Workflow.ttype wf j
    &&
    let eq = ref true in
    (try
       for u = 0 to m - 1 do
         if Instance.f inst i u <> Instance.f inst j u then begin
           eq := false;
           raise Exit
         end
       done
     with Exit -> ());
    !eq
  in
  let found = ref false in
  (try
     for i = 0 to n - 1 do
       for j = i + 1 to n - 1 do
         if same i j then begin
           found := true;
           raise Exit
         end
       done
     done
   with Exit -> ());
  !found

(* Children of a prefix: extend the pinned machine sequence by one level.
   The candidates for the task at depth [length prefix] are [collect]'s
   row there — the rule-allowed, symmetry-canonical machine choices in
   the (exec, machine) order [expand] branches in.  With incumbent
   [infinity] and no pins, [collect] admits every candidate, so the child
   list is a pure function of (instance, prefix) — identical for every
   --jobs value; a prunable child just dies at its first node.
   [child_prefixes] with the empty prefix yields the initial root split;
   re-splitting exhausted subtrees drives the dynamic redistribution in
   [solve].

   Never empty when [length prefix < n]: General always admits every
   machine; Specialized locks at most [type_count - 1 < m] machines to
   types other than the current one (or the current type's own machine is
   allowed); One_to_one has used [length prefix < n <= m] machines.  So a
   split always deepens the pending prefixes — progress is guaranteed. *)
let child_prefixes ctx prefix =
  (* Candidate enumeration never evaluates bounds: skip the LP oracle. *)
  let s = make_search ~with_lp:false ctx ~budget:max_int ~seed_p:infinity ~pins:[||] in
  let len = Array.length prefix in
  let ty_at k = Workflow.ttype ctx.wf ctx.order.(k) in
  (* Replay the pinned assignments as [child] makes them, so [collect]
     sees the exact search state this subtree starts from. *)
  Array.iteri (fun k u -> occupy s ctx.order.(k) (ty_at k) u) prefix;
  let cnt = collect s len ctx.order.(len) (ty_at len) in
  let base = len * ctx.m in
  (Array.init cnt (fun i -> Array.append prefix [| s.cand_u.(base + i) |]), s.sym_skips)

type sub_result = {
  r_best_p : float;
  r_alloc : int array option;
  r_nodes : int;
  r_charge : int;  (* pivot node-equivalents, charged alongside r_nodes *)
  r_bound : int;
  r_dom : int;
  r_dom_states : int;
  r_sym : int;
  r_best_at : int;
  r_exhausted : bool;
  r_lp_solves : int;
  r_lp_prunes : int;
  r_nogood : int;
}

let run_subtree ctx ~budget ~seed_p prefix =
  let s = make_search ctx ~budget ~seed_p ~pins:prefix in
  expand s 0;
  {
    r_best_p = s.local_best_p;
    r_alloc = s.local_best;
    r_nodes = s.nodes;
    r_charge = s.charged;
    r_bound = s.bound_prunes;
    r_dom = s.dom_prunes;
    r_dom_states = s.table_states;
    r_sym = s.sym_skips;
    r_best_at = s.best_at;
    r_exhausted = s.exhausted;
    r_lp_solves = s.lp_solves;
    r_lp_prunes = s.lp_prunes;
    r_nogood = s.nogood_records;
  }

(* Pending prefixes are capped so a pathological split cascade cannot
   build an unbounded frontier: once the cap is reached, exhausted
   subtrees re-run undivided (the pre-split behaviour). *)
let pending_cap = 4096

let solve ?(node_budget = 20_000_000) ?(setup = 0.0) ?pool ?dominance
    ?(symmetry = true) ?lower_bound ?incumbent ?node_bound ?(pivot_charge = 0) ?cancel
    ~rule inst =
  if setup < 0.0 then invalid_arg "Dfs.solve: negative setup time";
  if pivot_charge < 0 then invalid_arg "Dfs.solve: negative pivot charge";
  check_rule_feasible rule inst;
  (* A caller-supplied certified lower bound (e.g. the divisible-workload
     LP optimum of [Mf_lp.Splitting]) turns "incumbent meets the bound"
     into an optimality certificate without exhausting the tree. *)
  let met_bound p = match lower_bound with Some lb -> p <= lb | None -> false in
  (* Signature maintenance costs ~10x a plain node, so the dominance table
     defaults to on only where frontier signatures can actually repeat:
     product counts of two tasks coincide bit-for-bit only when the tasks
     share failure behaviour, so the table needs same-type task pairs with
     identical f rows (constant or quantized rates, replicated subtrees).
     With continuous random rates every prefix has a unique signature and
     the table is pure overhead.  Explicit ~dominance overrides either way. *)
  let dominance =
    match dominance with
    | Some d -> d
    | None ->
      (* With an LP oracle the table doubles as the no-good store, and
         signatures can collide across prefixes that permute machines of
         one symmetry class — worth the maintenance even on fully
         heterogeneous instances. *)
      node_bound <> None || has_repeated_task_profiles inst
  in
  let ctx = make_ctx ~rule ~setup ~dominance ~symmetry ~node_bound ~pivot_charge ~cancel inst in
  (* A caller's incumbent (the portfolio's shared best-so-far) is the
     seed.  It must satisfy [rule] — checked, because an infeasible
     incumbent would let the search "prove" a period no legal mapping
     attains. *)
  let seed_mp, seed_p =
    match incumbent with
    | Some ((mp, _) as inc) ->
      Mapping.check inst mp rule;
      inc
    | None -> fst (seed_incumbent ~setup rule inst)
  in
  if met_bound seed_p then
    { mapping = seed_mp; period = seed_p; optimal = true; nodes = 0; stats = zero_stats }
  else begin
  let roots, root_skips = child_prefixes ctx [||] in
  (* Each subtree searches against its own incumbent seeded from the
     deterministic best so far, so every run is a pure function of
     (instance, prefix, incumbent, budget) — node counts, prune counters
     and the exhaustion flag are bit-identical for every --jobs value,
     not just the period.  Cross-subtree incumbent sharing is recovered
     between rounds: the budget not consumed by subtrees that close is
     redistributed over the exhausted ones, which restart with the
     tightened incumbent.  Exhausted subtrees are additionally {e split}
     into their children ([child_prefixes]) before the next round —
     dynamic redistribution, replacing the old fixed depth-2 root split —
     so an unbalanced tree sheds its heavy subtree into finer pieces that
     spread across domains.  Splits depend only on the deterministic
     (exhausted?, canonical order) data of the previous round, so the
     round structure too is --jobs-independent. *)
  let best_p = ref seed_p in
  (* Incumbent allocation and its subtree-local node stamp, maintained
     monotonically with [best_p] across rounds.  A re-run of an exhausted
     subtree is seeded with the already-improved incumbent, so its result
     can tie [best_p] while carrying no allocation; only strict
     improvements — which always carry one — may overwrite the pair. *)
  let best_alloc = ref None in
  let best_at = ref 0 in
  (* Every explored node is counted the moment its round finishes —
     including work a later re-run or split supersedes: it was real
     exploration and stays charged against the budget. *)
  let nodes = ref 0
  and bound_prunes = ref 0
  and dom_prunes = ref 0
  and dom_states = ref 0
  and sym_skips = ref root_skips
  and lp_solves = ref 0
  and lp_prunes = ref 0
  and nogoods = ref 0
  and subtrees = ref (Array.length roots) in
  let budget_left = ref node_budget in
  (* Each pending entry carries whether it already got its one unsplit
     re-run (see the retry rule below). *)
  let pending = ref (List.map (fun p -> (p, false)) (Array.to_list roots)) in
  let last_per = ref 0 in
  let run_round prefixes ~f =
    match pool with
    | Some pool -> Pool.map_array ~chunk:1 ?cancel pool ~f prefixes
    | None -> Array.map f prefixes
  in
  let continue_rounds = ref (!pending <> []) in
  while !continue_rounds do
    let np = List.length !pending in
    let per = max 1 (!budget_left / np) in
    last_per := per;
    let seed_round = !best_p in
    let prefixes = Array.of_list !pending in
    let round =
      run_round prefixes ~f:(fun (prefix, _) ->
          run_subtree ctx ~budget:per ~seed_p:seed_round prefix)
    in
    (* The pool path raises from [map_array] itself; this covers the
       serial path, where cancelled subtrees stop and return partials. *)
    (match cancel with
    | Some tok when Pool.cancelled tok -> raise Pool.Cancelled
    | _ -> ());
    Array.iter
      (fun r ->
        budget_left := !budget_left - r.r_nodes - r.r_charge;
        nodes := !nodes + r.r_nodes;
        bound_prunes := !bound_prunes + r.r_bound;
        dom_prunes := !dom_prunes + r.r_dom;
        dom_states := !dom_states + r.r_dom_states;
        sym_skips := !sym_skips + r.r_sym;
        lp_solves := !lp_solves + r.r_lp_solves;
        lp_prunes := !lp_prunes + r.r_lp_prunes;
        nogoods := !nogoods + r.r_nogood;
        if r.r_best_p < !best_p then
          match r.r_alloc with
          | Some _ as a ->
            best_p := r.r_best_p;
            best_alloc := a;
            best_at := r.r_best_at
          | None -> ())
      round;
    let still =
      List.filteri (fun i _ -> round.(i).r_exhausted) (Array.to_list prefixes)
    in
    (* Retry rule: an exhausted subtree whose projected next slice at
       least doubles gets one re-run {e unsplit} before being split.
       Even redistribution starves a single heavy subtree — every
       under-budgeted attempt is waste charged against the budget — so
       when most siblings closed, the freed budget is offered to the
       heavy subtree whole once; only if it exhausts that too is it
       fragmented.  The projection uses the unsplit pending count, so
       the rule, like the split rule below, is a pure function of the
       previous round's deterministic aggregates. *)
    let projected =
      match still with
      | [] -> 0
      | l -> max 1 (!budget_left / List.length l)
    in
    (* Split the remaining exhausted subtrees into their children, newest
       at the same canonical position their parent held, under
       [pending_cap].  The cap check counts the children plus every
       unprocessed entry, so the decision sequence is a pure function of
       the (ordered) exhausted list — deterministic, hence
       --jobs-independent. *)
    let split_happened = ref false in
    let retry_happened = ref false in
    let next = ref [] in
    (* reversed *)
    let emitted = ref 0 in
    List.iteri
      (fun i (prefix, retried) ->
        let remaining_after = List.length still - i - 1 in
        let len = Array.length prefix in
        if len < ctx.n && !budget_left > 0 then
          if (not retried) && projected >= 2 * !last_per then begin
            retry_happened := true;
            emitted := !emitted + 1;
            next := (prefix, true) :: !next
          end
          else begin
            let children, skips = child_prefixes ctx prefix in
            let nc = Array.length children in
            if !emitted + nc + remaining_after <= pending_cap then begin
              split_happened := true;
              sym_skips := !sym_skips + skips;
              subtrees := !subtrees + nc;
              emitted := !emitted + nc;
              Array.iter (fun c -> next := (c, false) :: !next) children
            end
            else begin
              emitted := !emitted + 1;
              next := (prefix, retried) :: !next
            end
          end
        else begin
          emitted := !emitted + 1;
          next := (prefix, retried) :: !next
        end)
      still;
    let still = List.rev !next in
    pending := still;
    (* Re-run while the partition got finer, a retry was granted, or the
       redistributed slice actually grows; the budget spent on a
       superseded attempt stays charged. *)
    continue_rounds :=
      still <> [] && !budget_left > 0
      && (!split_happened || !retry_happened
         || max 1 (!budget_left / List.length still) > !last_per)
  done;
  let optimal = !pending = [] in
  (* The reported mapping is the carried incumbent allocation, a pure
     function of the rounds' deterministic results, hence the same for
     every --jobs value.  [best_alloc] is [Some] exactly when [best_p]
     improved on the seed. *)
  let mapping, period =
    match !best_alloc with
    | Some a -> (Mapping.of_array inst a, !best_p)
    | None -> (seed_mp, seed_p)
  in
  {
    mapping;
    period;
    (* An exhausted budget still proves optimality when the incumbent
       meets the caller's certified lower bound. *)
    optimal = optimal || met_bound period;
    nodes = !nodes;
    stats =
      {
        bound_prunes = !bound_prunes;
        dominance_prunes = !dom_prunes;
        dominance_states = !dom_states;
        symmetry_skips = !sym_skips;
        best_at_node = !best_at;
        root_subtrees = !subtrees;
        lp_solves = !lp_solves;
        lp_prunes = !lp_prunes;
        nogood_records = !nogoods;
      };
  }
  end

let specialized ?node_budget inst = solve ?node_budget ~rule:Mapping.Specialized inst
let general ?setup inst = solve ?setup ~rule:Mapping.General inst
let one_to_one inst = solve ~rule:Mapping.One_to_one inst
