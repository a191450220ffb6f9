module Instance = Mf_core.Instance
module Workflow = Mf_core.Workflow
module Mapping = Mf_core.Mapping
module Period = Mf_core.Period
module Heap = Mf_structures.Binary_heap
module FS = Simplex.Float_solver
module RS = Simplex.Rat_solver

type status = Optimal | Feasible | Infeasible | Unknown

type solve_result = {
  mapping : Mf_core.Mapping.t option;
  period : float option;
  k : float option;
  status : status;
  nodes : int;
}

(* [pairs forbidden] numbers the allowed pairs: [pair.(i * m + u)] is the
   index of pair (i, u), or -1 when it is forbidden; [na] counts them. *)
let pairs forbidden =
  let na = ref 0 in
  let pair =
    Array.map
      (fun f ->
        if f then -1
        else begin
          incr na;
          !na - 1
        end)
      forbidden
  in
  (pair, !na)

(* The layout is stated in micro_mip.mli.  Rows are written in
   increasing order, so every column lists its entries by row. *)
let build ?forbidden inst =
  let n = Instance.task_count inst and m = Instance.machines inst in
  let p = Instance.type_count inst in
  let wf = Instance.workflow inst and max_x = Instance.max_x inst in
  let pair, na =
    pairs (match forbidden with Some f -> f | None -> Array.make (n * m) false)
  in
  let y k = na + k and t u j = (2 * na) + (u * p) + j in
  let x i = (2 * na) + (m * p) + i and kcol = (2 * na) + (m * p) + n in
  let rows = n + (2 * m) + (5 * na) in
  let cols = kcol + 1 + rows - n in
  let columns = Array.make cols [] and b = Array.make rows 0.0 in
  let add r j v = columns.(j) <- (r, v) :: columns.(j) in
  (* [le r rhs] closes inequality row [r]: its slack, then [b] *)
  let le r rhs =
    add r (kcol + 1 + r - n) 1.0;
    b.(r) <- rhs
  in
  (* (3) each task on exactly one machine *)
  for i = 0 to n - 1 do
    for u = 0 to m - 1 do
      let k = pair.((i * m) + u) in
      if k >= 0 then add i k 1.0
    done;
    b.(i) <- 1.0
  done;
  (* (4) each machine dedicated to at most one type *)
  for u = 0 to m - 1 do
    for j = 0 to p - 1 do
      add (n + u) (t u j) 1.0
    done;
    le (n + u) 1.0
  done;
  (* (7) machine periods bounded by K *)
  for u = 0 to m - 1 do
    let r = n + m + u in
    for i = 0 to n - 1 do
      let k = pair.((i * m) + u) in
      if k >= 0 then add r (y k) (Instance.w inst i u)
    done;
    add r kcol (-1.0);
    le r 0.0
  done;
  Array.iteri
    (fun q k ->
      if k >= 0 then begin
        let i = q / m and u = q mod m in
        let r = n + (2 * m) + (5 * k) and mx = max_x.(i) in
        let factor = 1.0 /. (1.0 -. Instance.f inst i u) in
        (* (5) a task may only run on a machine specialized to its type *)
        add r k 1.0;
        add r (t u (Workflow.ttype wf i)) (-1.0);
        le r 0.0;
        (* (6) x_i >= F(i,u) x_succ(i) - (1 - a(i,u)) MAXx_i, with a
           virtual successor count 1 for a final task *)
        add (r + 1) k mx;
        add (r + 1) (x i) (-1.0);
        (match Workflow.successor wf i with
        | Some s ->
          add (r + 1) (x s) factor;
          le (r + 1) mx
        | None -> le (r + 1) (mx -. factor));
        (* (8) y(i,u) linearises a(i,u) x_i *)
        add (r + 2) (y k) 1.0;
        add (r + 2) k (-.mx);
        le (r + 2) 0.0;
        add (r + 3) (y k) 1.0;
        add (r + 3) (x i) (-1.0);
        le (r + 3) 0.0;
        add (r + 4) (x i) 1.0;
        add (r + 4) (y k) (-1.0);
        add (r + 4) k mx;
        le (r + 4) mx
      end)
    pair;
  let c = Array.make cols 0.0 in
  c.(kcol) <- 1.0;
  {
    Splitting.a = Sparse.Float_csc.of_columns ~rows ~cols (Array.map List.rev columns);
    b;
    c;
  }

(* An [a] within this distance of an integer counts as integral. *)
let int_tol = 1e-6

(* The node LP's optimum [(v, K)], or [None] when it is infeasible.  K >=
   0 is minimized, so the LP is bounded: a float [Unbounded], like a
   [Stalled], is numerical and is settled in exact rationals from the
   float basis. *)
let relax inst forbidden =
  let { Splitting.a; b; c } = build ~forbidden inst in
  let d = FS.solve_sparse_detailed ~a ~b ~c () in
  match d.FS.outcome with
  | FS.Optimal (v, k) -> Some (v, k)
  | FS.Infeasible -> None
  | FS.Unbounded | FS.Stalled -> (
    let module R = Mf_numeric.Rat in
    match (Mip.certify ~basis:d.FS.basis ~a ~b ~c ()).RS.outcome with
    | RS.Optimal (v, k) -> Some (Array.map R.to_float v, R.to_float k)
    | RS.Infeasible | RS.Unbounded -> None
    | RS.Stalled -> assert false)

type node = { bound : float; forbidden : bool array }

let solve ?(node_budget = 200_000) inst =
  let n = Instance.task_count inst and m = Instance.machines inst in
  let frontier = Heap.create ~cmp:(fun x y -> Float.compare x.bound y.bound) in
  Heap.push frontier { bound = neg_infinity; forbidden = Array.make (n * m) false };
  let nodes = ref 0 and budget_hit = ref false in
  let best = ref None and best_k = ref infinity in
  let rec search () =
    match Heap.pop frontier with
    | None -> ()
    | Some node when node.bound >= !best_k -. 1e-12 ->
      (* Best-first order: every remaining node is dominated too. *)
      ()
    | Some _ when !nodes >= node_budget -> budget_hit := true
    | Some { forbidden; _ } ->
      incr nodes;
      (match relax inst forbidden with
      | Some (v, k) when k < !best_k -> (
        let pair, _ = pairs forbidden in
        let a q = if pair.(q) < 0 then neg_infinity else v.(pair.(q)) in
        (* the most fractional a(i,u), the first on ties *)
        let branch = ref (-1) and frac = ref int_tol in
        for q = 0 to (n * m) - 1 do
          if pair.(q) >= 0 then begin
            let f = Float.abs (a q -. Float.round (a q)) in
            if f > !frac then begin
              branch := q;
              frac := f
            end
          end
        done;
        if !branch < 0 then begin
          let machine i =
            let u = ref 0 in
            for u' = 1 to m - 1 do
              if a ((i * m) + u') > a ((i * m) + !u) then u := u'
            done;
            !u
          in
          best := Some (Array.init n machine);
          best_k := k
        end
        else begin
          let q = !branch in
          let i = q / m in
          let down = Array.copy forbidden and up = Array.copy forbidden in
          down.(q) <- true;
          for u = 0 to m - 1 do
            if (i * m) + u <> q then up.((i * m) + u) <- true
          done;
          Heap.push frontier { bound = k; forbidden = down };
          Heap.push frontier { bound = k; forbidden = up }
        end)
      | Some _ | None -> ());
      search ()
  in
  search ();
  let status =
    match (!best, !budget_hit) with
    | Some _, false -> Optimal
    | Some _, true -> Feasible
    | None, false -> Infeasible
    | None, true -> Unknown
  in
  match !best with
  | None -> { mapping = None; period = None; k = None; status; nodes = !nodes }
  | Some alloc ->
    let mp = Mapping.of_array inst alloc in
    {
      mapping = Some mp;
      period = Some (Period.period inst mp);
      k = Some !best_k;
      status;
      nodes = !nodes;
    }
