module Instance = Mf_core.Instance
module Workflow = Mf_core.Workflow
module Mapping = Mf_core.Mapping
module Instance_io = Mf_core.Instance_io
module Wgen = Mf_workload.Gen
module Rng = Mf_prng.Rng
open Gen

type op =
  | Move of { task : int; machine : int }
  | Swap of { u : int; v : int }

let op_to_string = function
  | Move { task; machine } -> Printf.sprintf "move T%d -> M%d" task machine
  | Swap { u; v } -> Printf.sprintf "swap M%d <-> M%d" u v

type avail_op = Down of int | Up of int

let avail_op_to_string = function
  | Down u -> Printf.sprintf "down M%d" u
  | Up u -> Printf.sprintf "up M%d" u

(* ------------------------------------------------------------------ *)
(* Shrinking generators                                                 *)
(* ------------------------------------------------------------------ *)

(* Renumber arbitrary type labels to the contiguous range [0, p) in order
   of first appearance: any label array is valid, so element-wise
   shrinking (labels toward 0) can never break the Workflow contract —
   it only merges types. *)
let normalize_types raw =
  let n = Array.length raw in
  let remap = Hashtbl.create 8 in
  let next = ref 0 in
  let types =
    Array.init n (fun i ->
        match Hashtbl.find_opt remap raw.(i) with
        | Some t -> t
        | None ->
          let t = !next in
          incr next;
          Hashtbl.add remap raw.(i) t;
          t)
  in
  (types, !next)

(* Dyadic processing time: small integer in [1, 32] times 2^k.  Exactly
   representable, shrinks toward 1.0. *)
let dyadic_w ~kmax =
  map2 (fun small k -> float_of_int small *. Float.ldexp 1.0 k) (int_range 1 32)
    (int_range 0 kmax)

(* Failure rate on the 1/64 grid, f <= 1/2; zero (a degenerate row
   contributor) gets its own weight and is the shrink target. *)
let dyadic_f =
  frequency
    [ (1, return 0.0); (4, map (fun j -> float_of_int j /. 64.0) (int_range 0 32)) ]

(* Successor of task i: chain edge (shrink target), random forward jump,
   or — unless [forest] is off — none (an extra sink).  Single-sink
   in-trees are the paper's assembly model; the simulation oracle needs
   them because a machine hosting two independent sinks is free to pace
   them unevenly, which the analytic period does not model. *)
let successor_gen ~forest ~n i =
  if i = n - 1 then return None
  else
    frequency
      ([
         (4, return (Some (i + 1)));
         (2, map (fun j -> Some j) (int_range (i + 1) (n - 1)));
       ]
      @ if forest then [ (1, return None) ] else [])

let instance ?(min_tasks = 1) ?(max_tasks = 8) ?(max_types = 3) ?(min_machines = 1)
    ?(max_machines = 4) ?(machines_cover_types = false) ?(duplicate_machine = false)
    ?(forest = true) ?(kmax = 3) () =
  let* n = int_range min_tasks max_tasks in
  let* raw_types = array_n n (int_range 0 (max_types - 1)) in
  let types, p = normalize_types raw_types in
  let lo_m = if machines_cover_types then max p min_machines else min_machines in
  let* m = int_range lo_m (max lo_m max_machines) in
  let* successor = sequence (Array.init n (successor_gen ~forest ~n)) in
  (* One w row per type: type-consistency by construction. *)
  let* w_by_type = array_n p (array_n m (dyadic_w ~kmax)) in
  (* Failure regimes: task-attached (f_i constant per row), by-type
     (repeated profiles across same-type tasks — the dominance trigger),
     or fully per-(task, machine). *)
  let* f =
    choose
      [|
        map (fun fi -> Array.map (fun v -> Array.make m v) fi) (array_n n dyadic_f);
        map
          (fun f_by_type -> Array.map (fun ty -> Array.copy f_by_type.(ty)) types)
          (array_n p (array_n m dyadic_f));
        array_n n (array_n m dyadic_f);
      |]
  in
  let* dup = if duplicate_machine then bool else return false in
  let w = Array.map (fun ty -> Array.copy w_by_type.(ty)) types in
  let append_col rows = Array.map (fun row -> Array.append row [| row.(0) |]) rows in
  let m, w, f = if dup then (m + 1, append_col w, append_col f) else (m, w, f) in
  return (Instance.create ~workflow:(Workflow.in_forest ~types ~successor) ~machines:m ~w ~f)

let allocation inst =
  let n = Instance.task_count inst in
  let m = Instance.machines inst in
  map (Mapping.of_array inst) (array_n n (int_range 0 (m - 1)))

let specialized_allocation inst =
  let p = Instance.type_count inst in
  let m = Instance.machines inst in
  if m < p then invalid_arg "Instances.specialized_allocation: m < p";
  let wf = Instance.workflow inst in
  map
    (fun idx ->
      let perm = apply_permutation_indices idx in
      Mapping.of_array inst
        (Array.init (Instance.task_count inst) (fun i -> perm.(Workflow.ttype wf i))))
    (permutation_indices m)

(* Per-machine breakdown laws on a dyadic grid, expressed as multiples
   of the mapping's analytic period (the property scales them at run
   time, once the period is known): mtbf in {8, 16, 32} periods, mttr a
   ratio in {0, 1/4, 1/2} of mtbf, wear 0.  The mttr = 0 degenerate law
   (instant repairs, availability 1) carries its own weight and is the
   shrink target, so counterexamples shrink toward the static model. *)
let breakdown_profile inst =
  let one =
    let* mult = choose [| return 8.0; return 16.0; return 32.0 |] in
    let* ratio =
      frequency [ (1, return 0.0); (2, choose [| return 0.25; return 0.5 |]) ]
    in
    return (mult, ratio)
  in
  array_n (Instance.machines inst) one

let breakdown_profile_to_string profile =
  String.concat "; "
    (Array.to_list
       (Array.mapi
          (fun u (mult, ratio) ->
            Printf.sprintf "M%d: mtbf %gp mttr %gp" u mult (mult *. ratio))
          profile))

(* Availability scripts are drawn raw — (want_down, pick) pairs — and
   interpreted statefully by [decode_avail], so the raw array and every
   structural shrink of it (shorter, smaller elements) decodes to a
   valid breakdown/repair history: a down step picks among the machines
   currently up, an up step among those currently down, falling back to
   the other kind when the wanted set is empty. *)
let avail_script ~max_ops =
  array_sized ~min:1 ~max:max_ops (pair bool (int_range 0 15))

let decode_avail ~machines script =
  let down = Array.make machines false in
  let with_state b =
    let c = ref [] in
    for u = machines - 1 downto 0 do
      if down.(u) = b then c := u :: !c
    done;
    !c
  in
  Array.map
    (fun (want_down, pick) ->
      let take candidates = List.nth candidates (pick mod List.length candidates) in
      let ups = with_state false and downs = with_state true in
      let go_down =
        if want_down then ups <> [] (* fall back to a repair if all down *)
        else downs = [] (* fall back to a breakdown if all up *)
      in
      if go_down then begin
        let u = take ups in
        down.(u) <- true;
        Down u
      end
      else begin
        let u = take downs in
        down.(u) <- false;
        Up u
      end)
    script

let ops inst ~max_ops =
  let n = Instance.task_count inst in
  let m = Instance.machines inst in
  let one =
    choose
      [|
        map2 (fun task machine -> Move { task; machine }) (int_range 0 (n - 1))
          (int_range 0 (m - 1));
        map2 (fun u v -> Swap { u; v }) (int_range 0 (m - 1)) (int_range 0 (m - 1));
      |]
  in
  array_sized ~min:0 ~max:max_ops one

(* ------------------------------------------------------------------ *)
(* Printers                                                             *)
(* ------------------------------------------------------------------ *)

let print_instance = Instance_io.to_string

let print_with_mapping inst mp =
  Printf.sprintf "%smapping %s\n" (print_instance inst)
    (String.concat " " (Array.to_list (Array.map string_of_int (Mapping.to_array mp))))

let print_case inst mp steps =
  Printf.sprintf "%sops [%s]\n" (print_with_mapping inst mp)
    (String.concat "; " (Array.to_list (Array.map op_to_string steps)))

let print_breakdown_case inst mp profile =
  Printf.sprintf "%sbreakdowns (x analytic period, wear 0) [%s]\n"
    (print_with_mapping inst mp)
    (breakdown_profile_to_string profile)

let print_remap_case inst mp script ~budget =
  let decoded = decode_avail ~machines:(Instance.machines inst) script in
  Printf.sprintf "%sbudget %d\navail [%s]\n" (print_with_mapping inst mp) budget
    (String.concat "; " (Array.to_list (Array.map avail_op_to_string decoded)))

(* ------------------------------------------------------------------ *)
(* Deterministic indexed families                                       *)
(* ------------------------------------------------------------------ *)

(* The dfs-differential enumeration (moved verbatim from test_exact.ml so
   the suite and the fuzzer share it): chains and in-trees, n <= 8,
   m <= 4, every fifth instance task-attached. *)
let differential_instance ~rule i =
  let seed = i in
  let n, p, m =
    match rule with
    | Mapping.One_to_one ->
      let n = 2 + (i mod 3) in
      (n, 1 + (i mod 2), max n (2 + (i mod 3)))
    | Mapping.Specialized | Mapping.General ->
      let p = 1 + (i mod 3) in
      let n = max p (2 + (i mod 7)) in
      (n, p, p + (i mod (5 - p)))
  in
  let params = Wgen.default ~tasks:n ~types:p ~machines:m in
  let params =
    if i mod 5 = 0 then { params with Wgen.task_attached_failures = true } else params
  in
  if i mod 2 = 0 then Wgen.chain (Rng.create seed) params
  else Wgen.in_tree (Rng.create seed) params

(* The lp-differential dyadic family (moved verbatim from test_lp.ml):
   integer "small" workloads in [1, 32] times a per-machine power-of-two
   scale up to 2^kmax, failure rates snapped to the 1/64 grid.  Every
   coefficient is exactly representable in both float and rational. *)
let dyadic_lp_instance ~tasks ~machines ~kmax seed =
  let base =
    (if seed mod 2 = 0 then Wgen.chain else Wgen.in_tree)
      (Rng.create seed)
      (Wgen.with_high_failures (Wgen.default ~tasks ~types:(min tasks 4) ~machines))
  in
  let n = Instance.task_count base in
  let m = Instance.machines base in
  let w =
    Array.init n (fun i ->
        Array.init m (fun u ->
            (* w ~ U[100,1000) -> integer in [1, 32], then machine scale. *)
            let small = Float.max 1.0 (Float.round (Instance.w base i u /. 31.25)) in
            let k = if m = 1 then 0 else u * kmax / (m - 1) in
            small *. Float.ldexp 1.0 k))
  in
  let f =
    Array.init n (fun i ->
        Array.init m (fun u ->
            Float.min 0.984375 (Float.round (Instance.f base i u *. 64.0) /. 64.0)))
  in
  Instance.create ~workflow:(Instance.workflow base) ~machines:m ~w ~f

(* The small tier of the lp-differential suite, sized so a cold
   exact-rational solve stays affordable. *)
let lp_differential_instance i =
  dyadic_lp_instance ~tasks:(4 + (i mod 9)) ~machines:(2 + (i mod 4)) ~kmax:(i mod 11) i
