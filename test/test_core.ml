(* Tests for mf_core: Workflow, Instance, Mapping, Products, Period. *)

module Workflow = Mf_core.Workflow
module Instance = Mf_core.Instance
module Mapping = Mf_core.Mapping
module Products = Mf_core.Products
module Period = Mf_core.Period
module Rat = Mf_numeric.Rat

(* ------------------------------------------------------------------ *)
(* Workflow                                                            *)
(* ------------------------------------------------------------------ *)

let test_workflow_chain () =
  let wf = Workflow.chain ~types:[| 0; 1; 0; 1; 0 |] in
  Alcotest.(check int) "tasks" 5 (Workflow.task_count wf);
  Alcotest.(check int) "types" 2 (Workflow.type_count wf);
  Alcotest.(check int) "type of T2" 0 (Workflow.ttype wf 2);
  Alcotest.(check (option int)) "succ of T0" (Some 1) (Workflow.successor wf 0);
  Alcotest.(check (option int)) "succ of last" None (Workflow.successor wf 4);
  Alcotest.(check (list int)) "pred of T1" [ 0 ] (Workflow.predecessors wf 1);
  Alcotest.(check (list int)) "sinks" [ 4 ] (Workflow.sinks wf);
  Alcotest.(check (list int)) "sources" [ 0 ] (Workflow.sources wf);
  Alcotest.(check bool) "is_chain" true (Workflow.is_chain wf);
  Alcotest.(check (array int)) "backward order" [| 4; 3; 2; 1; 0 |] (Workflow.backward_order wf);
  Alcotest.(check (list int)) "tasks of type 0" [ 0; 2; 4 ] (Workflow.tasks_of_type wf 0)

let test_workflow_join () =
  (* The paper's Figure 1: T0 -> T1 -> T3 <- T2, T3 -> T4 (0-indexed). *)
  let wf =
    Workflow.in_forest
      ~types:[| 0; 1; 2; 3; 4 |]
      ~successor:[| Some 1; Some 3; Some 3; Some 4; None |]
  in
  Alcotest.(check (list int)) "join preds" [ 1; 2 ] (Workflow.predecessors wf 3);
  Alcotest.(check (list int)) "sources" [ 0; 2 ] (Workflow.sources wf);
  Alcotest.(check (list int)) "sinks" [ 4 ] (Workflow.sinks wf);
  Alcotest.(check bool) "not a chain" false (Workflow.is_chain wf);
  (* Backward order: every task after its successor. *)
  let order = Workflow.backward_order wf in
  let pos = Array.make 5 0 in
  Array.iteri (fun k i -> pos.(i) <- k) order;
  for i = 0 to 4 do
    match Workflow.successor wf i with
    | None -> ()
    | Some j ->
      Alcotest.(check bool) (Printf.sprintf "T%d after T%d" i j) true (pos.(i) > pos.(j))
  done

let test_workflow_validation () =
  Alcotest.check_raises "empty" (Invalid_argument "Workflow: empty task set") (fun () ->
      ignore (Workflow.chain ~types:[||]));
  Alcotest.check_raises "non-contiguous types"
    (Invalid_argument "Workflow: task types must form a contiguous range 0..p-1") (fun () ->
      ignore (Workflow.chain ~types:[| 0; 2 |]));
  Alcotest.check_raises "cycle" (Invalid_argument "Workflow: successor relation has a cycle")
    (fun () ->
      ignore (Workflow.in_forest ~types:[| 0; 0 |] ~successor:[| Some 1; Some 0 |]));
  Alcotest.check_raises "self-loop" (Invalid_argument "Workflow: successor relation has a cycle")
    (fun () -> ignore (Workflow.in_forest ~types:[| 0 |] ~successor:[| Some 0 |]))

let test_workflow_digraph () =
  let wf = Workflow.chain ~types:[| 0; 0; 0 |] in
  let g = Workflow.to_digraph wf in
  Alcotest.(check int) "edges" 2 (Mf_graph.Digraph.edge_count g);
  Alcotest.(check bool) "dag" true (Mf_graph.Digraph.is_dag g)

(* ------------------------------------------------------------------ *)
(* Instance                                                            *)
(* ------------------------------------------------------------------ *)

(* A small 2-task, 2-machine instance with easy numbers. *)
let small_instance () =
  let wf = Workflow.chain ~types:[| 0; 1 |] in
  Instance.create ~workflow:wf ~machines:2
    ~w:[| [| 100.0; 200.0 |]; [| 300.0; 400.0 |] |]
    ~f:[| [| 0.5; 0.25 |]; [| 0.5; 0.2 |] |]

let test_instance_accessors () =
  let inst = small_instance () in
  Alcotest.(check int) "m" 2 (Instance.machines inst);
  Alcotest.(check int) "n" 2 (Instance.task_count inst);
  Alcotest.(check int) "p" 2 (Instance.type_count inst);
  Alcotest.(check (float 0.0)) "w" 200.0 (Instance.w inst 0 1);
  Alcotest.(check (float 0.0)) "f" 0.2 (Instance.f inst 1 1);
  Alcotest.(check (float 0.0)) "w_of_type" 300.0 (Instance.w_of_type inst 1 0)

let test_instance_validation () =
  let wf = Workflow.chain ~types:[| 0; 1 |] in
  Alcotest.check_raises "f out of range"
    (Invalid_argument "Instance: failure probabilities must lie in [0, 1)") (fun () ->
      ignore
        (Instance.create ~workflow:wf ~machines:1 ~w:[| [| 1.0 |]; [| 1.0 |] |]
           ~f:[| [| 1.0 |]; [| 0.0 |] |]));
  Alcotest.check_raises "w non-positive"
    (Invalid_argument "Instance: processing times must be positive and finite") (fun () ->
      ignore
        (Instance.create ~workflow:wf ~machines:1 ~w:[| [| 0.0 |]; [| 1.0 |] |]
           ~f:[| [| 0.1 |]; [| 0.1 |] |]));
  (* Two tasks of the same type with different times must be rejected. *)
  let wf2 = Workflow.chain ~types:[| 0; 0 |] in
  Alcotest.check_raises "type consistency"
    (Invalid_argument "Instance: tasks of the same type must share processing times")
    (fun () ->
      ignore
        (Instance.create ~workflow:wf2 ~machines:1 ~w:[| [| 1.0 |]; [| 2.0 |] |]
           ~f:[| [| 0.1 |]; [| 0.1 |] |]))

let test_instance_max_x () =
  let inst = small_instance () in
  (* Worst f per task: T0 -> 0.5, T1 -> 0.5. MAXx_1 = 2, MAXx_0 = 4. *)
  let mx = Instance.max_x inst in
  Alcotest.(check (float 1e-9)) "MAXx_1" 2.0 mx.(1);
  Alcotest.(check (float 1e-9)) "MAXx_0" 4.0 mx.(0)

let test_instance_period_upper_bound () =
  let inst = small_instance () in
  (* Machine 0: 4*100 + 2*300 = 1000; machine 1: 4*200 + 2*400 = 1600. *)
  Alcotest.(check (float 1e-9)) "UB" 1600.0 (Instance.period_upper_bound inst)

let test_instance_predicates () =
  let inst = small_instance () in
  Alcotest.(check bool) "heterogeneous" false (Instance.is_homogeneous inst);
  Alcotest.(check bool) "machine-dependent f" false (Instance.failures_task_attached inst);
  let wf = Workflow.chain ~types:[| 0; 1 |] in
  let homo =
    Instance.create ~workflow:wf ~machines:2
      ~w:[| [| 5.0; 5.0 |]; [| 5.0; 5.0 |] |]
      ~f:[| [| 0.1; 0.1 |]; [| 0.2; 0.2 |] |]
  in
  Alcotest.(check bool) "homogeneous" true (Instance.is_homogeneous homo);
  Alcotest.(check bool) "task-attached f" true (Instance.failures_task_attached homo)

let test_instance_heterogeneity () =
  let inst = small_instance () in
  (* Machine 0 times: 100, 300 -> population sd = 100. *)
  Alcotest.(check (float 1e-9)) "h(M0)" 100.0 (Instance.heterogeneity inst 0);
  Alcotest.(check (float 1e-9)) "h(M1)" 100.0 (Instance.heterogeneity inst 1)

(* ------------------------------------------------------------------ *)
(* Mapping                                                             *)
(* ------------------------------------------------------------------ *)

let test_mapping_rules () =
  let wf = Workflow.chain ~types:[| 0; 1; 0 |] in
  let inst =
    Instance.create ~workflow:wf ~machines:3
      ~w:[| [| 1.0; 1.0; 1.0 |]; [| 1.0; 1.0; 1.0 |]; [| 1.0; 1.0; 1.0 |] |]
      ~f:(Array.make_matrix 3 3 0.1)
  in
  let mp_oto = Mapping.of_array inst [| 0; 1; 2 |] in
  Alcotest.(check bool) "oto ok" true (Mapping.satisfies inst mp_oto Mapping.One_to_one);
  Alcotest.(check bool) "oto is specialized" true
    (Mapping.satisfies inst mp_oto Mapping.Specialized);
  let mp_spec = Mapping.of_array inst [| 0; 1; 0 |] in
  Alcotest.(check bool) "spec ok" true (Mapping.satisfies inst mp_spec Mapping.Specialized);
  Alcotest.(check bool) "spec not oto" false
    (Mapping.satisfies inst mp_spec Mapping.One_to_one);
  let mp_gen = Mapping.of_array inst [| 0; 0; 0 |] in
  Alcotest.(check bool) "gen only" false (Mapping.satisfies inst mp_gen Mapping.Specialized);
  Alcotest.(check bool) "gen ok" true (Mapping.satisfies inst mp_gen Mapping.General);
  Alcotest.(check int) "used machines" 2 (Mapping.used_machines mp_spec);
  Alcotest.(check (list int)) "tasks_on M0" [ 0; 2 ] (Mapping.tasks_on mp_spec ~u:0);
  Alcotest.(check (option int)) "machine_type" (Some 0)
    (Mapping.machine_type inst mp_spec ~u:0);
  Alcotest.(check (option int)) "idle machine type" None
    (Mapping.machine_type inst mp_spec ~u:2)

let test_mapping_validation () =
  let inst = small_instance () in
  Alcotest.check_raises "machine range" (Invalid_argument "Mapping: machine out of range")
    (fun () -> ignore (Mapping.of_array inst [| 0; 5 |]));
  Alcotest.check_raises "length" (Invalid_argument "Mapping: allocation length mismatch")
    (fun () -> ignore (Mapping.of_array inst [| 0 |]))

(* ------------------------------------------------------------------ *)
(* Products and Period                                                 *)
(* ------------------------------------------------------------------ *)

let test_products_chain () =
  let inst = small_instance () in
  (* Allocation: T0 -> M0 (f=0.5), T1 -> M1 (f=0.2).
     x_1 = 1/(1-0.2) = 1.25; x_0 = x_1 / (1-0.5) = 2.5. *)
  let mp = Mapping.of_array inst [| 0; 1 |] in
  let x = Products.x inst mp in
  Alcotest.(check (float 1e-12)) "x1" 1.25 x.(1);
  Alcotest.(check (float 1e-12)) "x0" 2.5 x.(0)

let test_products_exact_agree () =
  let inst = small_instance () in
  let mp = Mapping.of_array inst [| 0; 1 |] in
  let x = Products.x inst mp in
  let xe = Products.x_exact inst mp in
  Array.iteri
    (fun i xi ->
      Alcotest.(check (float 1e-12)) (Printf.sprintf "x%d" i) xi (Rat.to_float xe.(i)))
    x

let test_products_join () =
  (* Join: T0 and T1 both feed T2 (types all distinct). *)
  let wf =
    Workflow.in_forest ~types:[| 0; 1; 2 |] ~successor:[| Some 2; Some 2; None |]
  in
  let inst =
    Instance.create ~workflow:wf ~machines:3
      ~w:(Array.make_matrix 3 3 10.0)
      ~f:
        [|
          [| 0.5; 0.5; 0.5 |];
          [| 0.2; 0.2; 0.2 |];
          [| 0.0; 0.0; 0.0 |];
        |]
  in
  let mp = Mapping.of_array inst [| 0; 1; 2 |] in
  let x = Products.x inst mp in
  Alcotest.(check (float 1e-12)) "sink x" 1.0 x.(2);
  Alcotest.(check (float 1e-12)) "branch 0" 2.0 x.(0);
  Alcotest.(check (float 1e-12)) "branch 1" 1.25 x.(1)

let test_inputs_needed () =
  let inst = small_instance () in
  let mp = Mapping.of_array inst [| 0; 1 |] in
  (* x_0 = 2.5: for 10 outputs we need ceil(25) = 25 raw products. *)
  Alcotest.(check (list (pair int int))) "inputs" [ (0, 25) ]
    (Products.inputs_needed inst mp ~x_out:10)

let test_period_chain () =
  let inst = small_instance () in
  let mp = Mapping.of_array inst [| 0; 1 |] in
  (* period(M0) = x0 * w(0,0) = 2.5*100 = 250;
     period(M1) = x1 * w(1,1) = 1.25*400 = 500. *)
  let periods = Period.machine_periods inst mp in
  Alcotest.(check (float 1e-9)) "M0" 250.0 periods.(0);
  Alcotest.(check (float 1e-9)) "M1" 500.0 periods.(1);
  Alcotest.(check (float 1e-9)) "system" 500.0 (Period.period inst mp);
  Alcotest.(check (float 1e-12)) "throughput" (1.0 /. 500.0) (Period.throughput inst mp);
  Alcotest.(check (list int)) "critical" [ 1 ] (Period.critical_machines inst mp)

let test_period_shared_machine () =
  (* Both tasks of type 0 on one machine: loads add up. *)
  let wf = Workflow.chain ~types:[| 0; 0 |] in
  let inst =
    Instance.create ~workflow:wf ~machines:2
      ~w:[| [| 100.0; 50.0 |]; [| 100.0; 50.0 |] |]
      ~f:(Array.make_matrix 2 2 0.5)
  in
  let mp = Mapping.of_array inst [| 0; 0 |] in
  (* x1 = 2, x0 = 4 -> period(M0) = 4*100 + 2*100 = 600. *)
  Alcotest.(check (float 1e-9)) "sum of contributions" 600.0 (Period.period inst mp)

let test_period_exact_agrees () =
  let inst = small_instance () in
  List.iter
    (fun alloc ->
      let mp = Mapping.of_array inst alloc in
      Alcotest.(check (float 1e-9))
        "float vs exact period"
        (Period.period inst mp)
        (Rat.to_float (Period.period_exact inst mp)))
    [ [| 0; 1 |]; [| 1; 0 |]; [| 0; 0 |]; [| 1; 1 |] ]

let test_period_with_setup () =
  let wf = Workflow.chain ~types:[| 0; 1; 0 |] in
  let inst =
    Instance.create ~workflow:wf ~machines:2
      ~w:(Array.make_matrix 3 2 100.0)
      ~f:(Array.make_matrix 3 2 0.0)
  in
  (* General mapping with two types on M0: in the cyclic steady state the
     machine switches type0 -> type1 -> type0 every period, two switches. *)
  let mixed = Mapping.of_array inst [| 0; 0; 1 |] in
  let base = Period.period inst mixed in
  Alcotest.(check (float 1e-9)) "setup 0 is plain period" base
    (Period.with_setup inst mixed ~setup:0.0);
  Alcotest.(check (float 1e-9)) "two types cycle: two switches" (base +. 100.0)
    (Period.with_setup inst mixed ~setup:50.0);
  (* Three types on one machine: three switches per period. *)
  let wf3 = Workflow.chain ~types:[| 0; 1; 2 |] in
  let inst3 =
    Instance.create ~workflow:wf3 ~machines:1
      ~w:(Array.make_matrix 3 1 100.0)
      ~f:(Array.make_matrix 3 1 0.0)
  in
  let all_on_0 = Mapping.of_array inst3 [| 0; 0; 0 |] in
  Alcotest.(check (float 1e-9)) "three types: three switches"
    (Period.period inst3 all_on_0 +. 150.0)
    (Period.with_setup inst3 all_on_0 ~setup:50.0);
  (* Specialized mapping: no penalty whatever the setup. *)
  let spec = Mapping.of_array inst [| 0; 1; 0 |] in
  Alcotest.(check (float 1e-9)) "specialized unaffected"
    (Period.period inst spec)
    (Period.with_setup inst spec ~setup:1000.0);
  Alcotest.check_raises "negative setup"
    (Invalid_argument "Period.with_setup: negative setup time") (fun () ->
      ignore (Period.with_setup inst spec ~setup:(-1.0)))

(* ------------------------------------------------------------------ *)
(* Instance_io                                                         *)
(* ------------------------------------------------------------------ *)

module Instance_io = Mf_core.Instance_io

let same_instance a b =
  let n = Instance.task_count a and m = Instance.machines a in
  n = Instance.task_count b
  && m = Instance.machines b
  && List.for_all
       (fun i ->
         Workflow.ttype (Instance.workflow a) i = Workflow.ttype (Instance.workflow b) i
         && Workflow.successor (Instance.workflow a) i = Workflow.successor (Instance.workflow b) i
         && List.for_all
              (fun u ->
                Float.equal (Instance.w a i u) (Instance.w b i u)
                && Float.equal (Instance.f a i u) (Instance.f b i u))
              (List.init m Fun.id))
       (List.init n Fun.id)

let test_io_roundtrip_chain () =
  let inst = small_instance () in
  let loaded = Instance_io.of_string (Instance_io.to_string inst) in
  Alcotest.(check bool) "exact roundtrip" true (same_instance inst loaded)

let test_io_roundtrip_tree () =
  let inst =
    Mf_workload.Gen.in_tree (Mf_prng.Rng.create 9)
      (Mf_workload.Gen.default ~tasks:12 ~types:4 ~machines:5)
  in
  let loaded = Instance_io.of_string (Instance_io.to_string inst) in
  Alcotest.(check bool) "tree roundtrip" true (same_instance inst loaded)

let test_io_file_roundtrip () =
  let inst = small_instance () in
  let path = Filename.temp_file "mf_test" ".inst" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Instance_io.write_file path inst;
      let loaded = Instance_io.read_file path in
      Alcotest.(check bool) "file roundtrip" true (same_instance inst loaded))

let test_io_rejects_garbage () =
  List.iter
    (fun text ->
      match Instance_io.of_string text with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail ("accepted malformed input: " ^ text))
    [
      "";
      "nonsense";
      "tasks 2 machines 1\ntypes 0\nsuccessors -1";
      "tasks 1 machines 1\ntypes 0\nsuccessors -1\nw 0 1.0";
      "tasks 1 machines 1\ntypes 0\nsuccessors -1\nw 0 1.0 2.0\nf 0 0.1";
    ]

let test_io_comments_and_blank_lines () =
  let inst = small_instance () in
  let text = "# leading comment\n\n" ^ Instance_io.to_string inst ^ "\n# trailing\n" in
  let loaded = Instance_io.of_string text in
  Alcotest.(check bool) "tolerates comments" true (same_instance inst loaded)

(* parse o print = id over the fuzzer's heterogeneous instance pool
   (mixed dyadic scales, degenerate f = 0 rows, repeated type profiles,
   forests) — shrunk counterexamples print as replayable instance text. *)
let test_io_roundtrip_property () =
  let module P = Mf_proptest in
  let report =
    P.Prop.check ~count:300 ~name:"io-roundtrip" ~seed:1202
      (P.Instances.instance ~max_tasks:10 ~max_machines:5 ~duplicate_machine:true ())
      (fun inst ->
        match Instance_io.of_string_result (Instance_io.to_string inst) with
        | Error e -> Error (Instance_io.describe_error e)
        | Ok loaded ->
          if same_instance inst loaded then Ok ()
          else Error "parse (print inst) differs from inst")
  in
  match report.P.Prop.failure with
  | None -> ()
  | Some f ->
    Alcotest.fail
      (Printf.sprintf "roundtrip failed (seed %d): %s\n%s" f.P.Prop.case_seed
         f.P.Prop.message
         (Instance_io.to_string f.P.Prop.value))

(* ------------------------------------------------------------------ *)
(* Canon: canonical instance form                                      *)
(* ------------------------------------------------------------------ *)

module Canon = Mf_core.Canon

(* Hand-checkable unit case: permuting machines and relabeling types
   leaves the canonical key unchanged, and the inverse permutations
   round-trip allocations. *)
let test_canon_unit () =
  let w = [| [| 4.0; 2.0 |]; [| 1.0; 3.0 |]; [| 4.0; 2.0 |] |] in
  let f = [| [| 0.0; 0.125 |]; [| 0.0625; 0.0 |]; [| 0.0; 0.0 |] |] in
  let workflow =
    Workflow.in_forest ~types:[| 1; 0; 1 |] ~successor:[| Some 2; Some 2; None |]
  in
  let inst = Instance.create ~workflow ~machines:2 ~w ~f in
  let swap row = [| row.(1); row.(0) |] in
  let workflow' =
    (* relabel types by the swap 0 <-> 1 *)
    Workflow.in_forest ~types:[| 0; 1; 0 |] ~successor:[| Some 2; Some 2; None |]
  in
  let inst' =
    Instance.create ~workflow:workflow' ~machines:2 ~w:(Array.map swap w)
      ~f:(Array.map swap f)
  in
  Alcotest.(check string) "keys equal" (Canon.key inst) (Canon.key inst');
  let c = Canon.canonicalize inst in
  Alcotest.(check string) "key field agrees" (Canon.key inst) c.Canon.key;
  (* canonicalization is idempotent: the canonical instance is its own
     canonical form *)
  Alcotest.(check string) "idempotent" c.Canon.key (Canon.key c.Canon.instance);
  (* of_canon / to_canon are mutually inverse *)
  let m = Instance.machines inst in
  for u = 0 to m - 1 do
    Alcotest.(check int) "to(of(c)) = c" u c.Canon.to_canon.(c.Canon.of_canon.(u));
    Alcotest.(check int) "of(to(u)) = u" u c.Canon.of_canon.(c.Canon.to_canon.(u))
  done;
  let alloc = [| 0; 1; 1 |] in
  Alcotest.(check (array int)) "map round-trip" alloc
    (Canon.map_from_canon c (Canon.map_to_canon c alloc));
  (* f = -0.0 is in range and parses off the wire, but its bits are not
     those of 0.0: the machine swap of a chain with f row (0, -0) must
     still share the key *)
  let chain2 f0 =
    Instance_io.of_string
      ("tasks 2 machines 2\ntypes 0 1\nsuccessors 1 -1\nw 0 1 1\nw 1 2 2\nf 0 " ^ f0
     ^ "\nf 1 0 0\n")
  in
  Alcotest.(check bool)
    "f = -0.0: machine swap keeps the key" true
    (Canon.key (chain2 "0 -0") = Canon.key (chain2 "-0 0"))

(* Property: the key is invariant under any machine permutation composed
   with any type relabeling, and a mapping pushed through to_canon
   achieves the same period (bit-for-bit) on the canonical instance. *)
let test_canon_invariance_property () =
  let module P = Mf_proptest in
  let gen =
    let open P.Gen in
    let* inst =
      P.Instances.instance ~max_tasks:8 ~max_machines:5 ~duplicate_machine:true ()
    in
    let* mp = P.Instances.allocation inst in
    let* midx = permutation_indices (Instance.machines inst) in
    let* tidx = permutation_indices (Instance.type_count inst) in
    return (inst, mp, apply_permutation_indices midx, apply_permutation_indices tidx)
  in
  let report =
    P.Prop.check ~count:300 ~name:"canon-invariance" ~seed:1303 gen
      (fun (inst, mp, mperm, tperm) ->
        let n = Instance.task_count inst and m = Instance.machines inst in
        let wf = Instance.workflow inst in
        let permute row =
          let out = Array.make m 0.0 in
          Array.iteri (fun u v -> out.(v) <- row.(u)) mperm;
          out
        in
        let variant =
          Instance.create
            ~workflow:
              (Workflow.in_forest
                 ~types:(Array.init n (fun i -> tperm.(Workflow.ttype wf i)))
                 ~successor:(Array.init n (Workflow.successor wf)))
            ~machines:m
            ~w:(Array.init n (fun i -> permute (Array.init m (Instance.w inst i))))
            ~f:(Array.init n (fun i -> permute (Array.init m (Instance.f inst i))))
        in
        if Canon.key variant <> Canon.key inst then
          Error "canonical key not invariant under machine permutation + type relabeling"
        else
          let c = Canon.canonicalize inst in
          let p = Period.period inst mp in
          let p_canon =
            Period.period c.Canon.instance
              (Mapping.of_array c.Canon.instance
                 (Canon.map_to_canon c (Mapping.to_array mp)))
          in
          if p_canon <> p then
            Error
              (Printf.sprintf "period not preserved into the canonical frame: %h vs %h"
                 p_canon p)
          else Ok ())
  in
  match report.P.Prop.failure with
  | None -> ()
  | Some f ->
    let inst, _, _, _ = f.P.Prop.value in
    Alcotest.fail
      (Printf.sprintf "canon invariance failed (seed %d): %s\n%s" f.P.Prop.case_seed
         f.P.Prop.message (P.Instances.print_instance inst))

(* Property: the key is injective on the canonical form.  It opens
   with n and m; it changes under a one-ulp step of any single w entry
   (of a type's shared row) or f entry, a different successor, a
   different type pattern, and one task or machine fewer; and no key of
   one size is a prefix of a key of another size. *)
let test_canon_key_injective () =
  let module P = Mf_proptest in
  let first_appearance types =
    let label = Hashtbl.create 8 in
    Array.map
      (fun ty ->
        match Hashtbl.find_opt label ty with
        | Some l -> l
        | None ->
          let l = Hashtbl.length label in
          Hashtbl.add label ty l;
          l)
      types
  in
  (* one ulp, kept inside f's range [0, 1) *)
  let f_step v = if Float.succ v < 1.0 then Float.succ v else Float.pred v in
  let set row u v = Array.mapi (fun u' x -> if u' = u then v else x) row in
  let drop k a = Array.of_list (List.filteri (fun i _ -> i <> k) (Array.to_list a)) in
  let report =
    P.Prop.check ~count:150 ~name:"canon-injective" ~seed:1505
      (P.Instances.instance ~max_tasks:8 ~max_machines:5 ~duplicate_machine:true ())
      (fun inst ->
        let n = Instance.task_count inst and m = Instance.machines inst in
        let wf = Instance.workflow inst in
        let types = Array.init n (Workflow.ttype wf) in
        let successor = Array.init n (Workflow.successor wf) in
        let w = Array.init n (fun i -> Array.init m (Instance.w inst i)) in
        let f = Array.init n (fun i -> Array.init m (Instance.f inst i)) in
        let make ?(types = types) ?(successor = successor) ?(w = w) ?(f = f) () =
          match Workflow.in_forest ~types ~successor with
          | workflow ->
            Some (Instance.create ~workflow ~machines:(Array.length w.(0)) ~w ~f)
          | exception Invalid_argument _ -> None
        in
        let variants = ref [] and smaller = ref [] in
        let add into what v = Option.iter (fun v -> into := (what, v) :: !into) v in
        for i = 0 to n - 1 do
          for u = 0 to m - 1 do
            (* tasks of one type share their w row: step it for all *)
            let w' =
              Array.mapi
                (fun i' row ->
                  if types.(i') = types.(i) then set row u (Float.succ row.(u)) else row)
                w
            in
            add variants (Printf.sprintf "w(%d,%d) one ulp" i u) (make ~w:w' ());
            let f' =
              Array.mapi (fun i' row -> if i' = i then set row u (f_step row.(u)) else row) f
            in
            add variants (Printf.sprintf "f(%d,%d) one ulp" i u) (make ~f:f' ())
          done;
          List.iter
            (fun s ->
              if s <> successor.(i) then
                add variants
                  (Printf.sprintf "successor of %d" i)
                  (make ~successor:(set successor i s) ()))
            (None :: List.init n Option.some);
          let same_type = Array.fold_left (fun c ty -> if ty = types.(i) then c + 1 else c) 0 in
          if same_type types > 1 then
            add variants
              (Printf.sprintf "task %d split off its type" i)
              (make ~types:(first_appearance (set types i n)) ())
        done;
        if n > 1 then
          for k = 0 to n - 1 do
            let successor =
              Array.map
                (function
                  | Some j when j = k -> None | Some j when j > k -> Some (j - 1) | s -> s)
                (drop k successor)
            in
            add smaller
              (Printf.sprintf "task %d dropped" k)
              (make ~types:(first_appearance (drop k types)) ~successor ~w:(drop k w)
                 ~f:(drop k f) ())
          done;
        if m > 1 then
          for u = 0 to m - 1 do
            add smaller
              (Printf.sprintf "machine %d dropped" u)
              (make ~w:(Array.map (drop u) w) ~f:(Array.map (drop u) f) ())
          done;
        let key = Canon.key inst in
        (* the size opens the key: what makes it self-delimiting *)
        let opens_with_size =
          String.get_int64_le key 0 = Int64.of_int n
          && String.get_int64_le key 8 = Int64.of_int m
        in
        let clash =
          List.find_opt (fun (_, v) -> Canon.key v = key) (!variants @ !smaller)
        in
        let prefix =
          List.find_opt
            (fun (_, v) ->
              let k = Canon.key v in
              String.starts_with ~prefix:k key || String.starts_with ~prefix:key k)
            !smaller
        in
        match (clash, prefix) with
        | _ when not opens_with_size -> Error "key does not open with n and m"
        | Some (what, _), _ -> Error ("key unchanged: " ^ what)
        | None, Some (what, _) -> Error ("key is a prefix across sizes: " ^ what)
        | None, None -> Ok ())
  in
  match report.P.Prop.failure with
  | None -> ()
  | Some f ->
    Alcotest.fail
      (Printf.sprintf "canon injectivity failed (seed %d): %s\n%s" f.P.Prop.case_seed
         f.P.Prop.message
         (P.Instances.print_instance f.P.Prop.value))

(* The canonical machine order groups symmetry classes contiguously:
   Symmetry.machine_classes on the canonical instance always points at a
   contiguous run of bit-identical columns. *)
let test_canon_classes_contiguous () =
  let module P = Mf_proptest in
  let report =
    P.Prop.check ~count:300 ~name:"canon-classes" ~seed:1404
      (P.Instances.instance ~max_tasks:8 ~max_machines:5 ~duplicate_machine:true ())
      (fun inst ->
        let c = Canon.canonicalize inst in
        let classes = Mf_exact.Symmetry.machine_classes c.Canon.instance in
        let m = Instance.machines c.Canon.instance in
        let ok = ref (Ok ()) in
        for u = 1 to m - 1 do
          (* each machine either continues the previous machine's class
             or opens a fresh one rooted at itself *)
          if classes.(u) <> classes.(u - 1) && classes.(u) <> u then
            ok :=
              Error
                (Printf.sprintf "class of canonical machine %d is %d: not contiguous" u
                   classes.(u))
        done;
        !ok)
  in
  match report.P.Prop.failure with
  | None -> ()
  | Some f ->
    Alcotest.fail
      (Printf.sprintf "canon classes failed (seed %d): %s\n%s" f.P.Prop.case_seed
         f.P.Prop.message
         (P.Instances.print_instance f.P.Prop.value))

(* Malformed input comes back as a typed error with a usable line
   number — not as an exception. *)
let test_io_typed_errors () =
  let check_error text want_line =
    match Instance_io.of_string_result text with
    | Ok _ -> Alcotest.fail ("accepted malformed input: " ^ String.escaped text)
    | Error e ->
      Alcotest.(check int)
        (Printf.sprintf "error line for %s (%s)" (String.escaped text)
           (Instance_io.describe_error e))
        want_line e.Instance_io.line;
      Alcotest.(check bool) "message non-empty" true
        (String.length e.Instance_io.message > 0)
  in
  check_error "" 0;
  check_error "nonsense" 1;
  check_error "tasks 2 machines 1\ntypes 0\nsuccessors -1" 2;
  (* Missing or mis-labelled header lines are named, not reported as a
     bad 'tasks ... machines ...' header. *)
  check_error "tasks 2 machines 1" 0;
  check_error "tasks 2 machines 1\ntypes 0 0" 0;
  check_error "tasks 2 machines 1\nsuccessors 1 -1" 2;
  check_error "tasks 1 machines 1\ntypes 0\nsuccessors -1\nw 0 oops\nf 0 0" 4;
  check_error "tasks 1 machines 1\ntypes 0\nsuccessors -1\nw 0 1.0" 0;
  (* Semantic errors caught by the smart constructors, not the parser:
     a successor cycle and an out-of-range failure probability. *)
  check_error "tasks 2 machines 1\ntypes 0 0\nsuccessors 1 0\nw 0 1\nw 1 1\nf 0 0\nf 1 0" 0;
  check_error "tasks 1 machines 1\ntypes 0\nsuccessors -1\nw 0 1\nf 0 1.5" 0

(* ------------------------------------------------------------------ *)
(* Properties on random instances                                      *)
(* ------------------------------------------------------------------ *)

let arb_instance =
  let gen =
    QCheck.Gen.(
      let* seed = int_range 0 1_000_000 in
      let* n = int_range 1 12 in
      let* p = int_range 1 (min n 4) in
      let* m = int_range (max p 2) 6 in
      let rng = Mf_prng.Rng.create seed in
      let params = Mf_workload.Gen.default ~tasks:n ~types:p ~machines:m in
      let* tree = bool in
      return (if tree then Mf_workload.Gen.in_tree rng params else Mf_workload.Gen.chain rng params))
  in
  QCheck.make ~print:(Format.asprintf "%a" Instance.pp) gen

let random_mapping inst seed =
  let rng = Mf_prng.Rng.create seed in
  Mapping.of_array inst
    (Array.init (Instance.task_count inst) (fun _ ->
         Mf_prng.Rng.int rng (Instance.machines inst)))

let prop_x_at_least_one =
  QCheck.Test.make ~name:"core: every x_i >= 1" ~count:200 arb_instance (fun inst ->
      let mp = random_mapping inst 7 in
      Array.for_all (fun x -> x >= 1.0) (Products.x inst mp))

let prop_x_monotone_along_paths =
  QCheck.Test.make ~name:"core: x_i >= x_succ(i)" ~count:200 arb_instance (fun inst ->
      let mp = random_mapping inst 11 in
      let x = Products.x inst mp in
      let wf = Instance.workflow inst in
      List.for_all
        (fun i ->
          match Workflow.successor wf i with None -> true | Some j -> x.(i) >= x.(j))
        (List.init (Instance.task_count inst) Fun.id))

let prop_period_is_max_of_machine_periods =
  QCheck.Test.make ~name:"core: period = max machine period" ~count:200 arb_instance
    (fun inst ->
      let mp = random_mapping inst 13 in
      let periods = Period.machine_periods inst mp in
      Float.equal (Period.period inst mp) (Array.fold_left Float.max 0.0 periods))

let prop_period_below_upper_bound =
  QCheck.Test.make ~name:"core: any mapping period <= period_upper_bound" ~count:200
    arb_instance (fun inst ->
      let mp = random_mapping inst 17 in
      Period.period inst mp <= Instance.period_upper_bound inst *. (1.0 +. 1e-9))

let prop_exact_matches_float =
  QCheck.Test.make ~name:"core: exact and float periods agree to 1e-6 rel" ~count:100
    arb_instance (fun inst ->
      let mp = random_mapping inst 19 in
      let p = Period.period inst mp in
      let pe = Rat.to_float (Period.period_exact inst mp) in
      Float.abs (p -. pe) <= 1e-6 *. Float.max 1.0 pe)

let () =
  Alcotest.run "mf_core"
    [
      ( "workflow",
        [
          Alcotest.test_case "chain" `Quick test_workflow_chain;
          Alcotest.test_case "join" `Quick test_workflow_join;
          Alcotest.test_case "validation" `Quick test_workflow_validation;
          Alcotest.test_case "digraph" `Quick test_workflow_digraph;
        ] );
      ( "instance",
        [
          Alcotest.test_case "accessors" `Quick test_instance_accessors;
          Alcotest.test_case "validation" `Quick test_instance_validation;
          Alcotest.test_case "max_x" `Quick test_instance_max_x;
          Alcotest.test_case "period upper bound" `Quick test_instance_period_upper_bound;
          Alcotest.test_case "predicates" `Quick test_instance_predicates;
          Alcotest.test_case "heterogeneity" `Quick test_instance_heterogeneity;
        ] );
      ( "mapping",
        [
          Alcotest.test_case "rules" `Quick test_mapping_rules;
          Alcotest.test_case "validation" `Quick test_mapping_validation;
        ] );
      ( "products",
        [
          Alcotest.test_case "chain" `Quick test_products_chain;
          Alcotest.test_case "exact agree" `Quick test_products_exact_agree;
          Alcotest.test_case "join" `Quick test_products_join;
          Alcotest.test_case "inputs needed" `Quick test_inputs_needed;
        ] );
      ( "period",
        [
          Alcotest.test_case "chain" `Quick test_period_chain;
          Alcotest.test_case "shared machine" `Quick test_period_shared_machine;
          Alcotest.test_case "exact agrees" `Quick test_period_exact_agrees;
          Alcotest.test_case "with setup" `Quick test_period_with_setup;
        ] );
      ( "instance_io",
        [
          Alcotest.test_case "chain roundtrip" `Quick test_io_roundtrip_chain;
          Alcotest.test_case "tree roundtrip" `Quick test_io_roundtrip_tree;
          Alcotest.test_case "file roundtrip" `Quick test_io_file_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick test_io_rejects_garbage;
          Alcotest.test_case "comments" `Quick test_io_comments_and_blank_lines;
          Alcotest.test_case "roundtrip property" `Quick test_io_roundtrip_property;
          Alcotest.test_case "typed errors" `Quick test_io_typed_errors;
        ] );
      ( "canon",
        [
          Alcotest.test_case "unit round-trip" `Quick test_canon_unit;
          Alcotest.test_case "key invariance (300)" `Quick test_canon_invariance_property;
          Alcotest.test_case "key injectivity (150)" `Quick test_canon_key_injective;
          Alcotest.test_case "classes contiguous (300)" `Quick test_canon_classes_contiguous;
        ] );
      ( "props",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_x_at_least_one;
            prop_x_monotone_along_paths;
            prop_period_is_max_of_machine_periods;
            prop_period_below_upper_bound;
            prop_exact_matches_float;
          ] );
    ]
