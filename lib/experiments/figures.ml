module Gen = Mf_workload.Gen
module Registry = Mf_heuristics.Registry
module Rng = Mf_prng.Rng

let range lo hi step = List.init (((hi - lo) / step) + 1) (fun i -> lo + (i * step))

let all_heuristics = List.map Runner.heuristic Registry.all

let chain_gen params ~x:_ ~seed = Gen.chain (Rng.create seed) params

let fig5 ?(replicates = 30) ?pool () =
  Runner.run ~id:"fig5" ?pool ~title:"Specialized mappings, m=50, p=5" ~x_label:"number of tasks"
    ~xs:(range 50 150 10) ~replicates
    ~gen:(fun ~x ~seed -> chain_gen (Gen.default ~tasks:x ~types:5 ~machines:50) ~x ~seed)
    ~algos:all_heuristics ()

let fig6 ?(replicates = 30) ?pool () =
  Runner.run ~id:"fig6" ?pool ~title:"Specialized mappings, m=10, p=2" ~x_label:"number of tasks"
    ~xs:(range 10 100 10) ~replicates
    ~gen:(fun ~x ~seed -> chain_gen (Gen.default ~tasks:x ~types:2 ~machines:10) ~x ~seed)
    ~algos:(List.map Runner.heuristic [ Registry.H2; Registry.H3; Registry.H4; Registry.H4w ])
    ()

let fig7 ?(replicates = 30) ?pool () =
  Runner.run ~id:"fig7" ?pool ~title:"Large platform, m=100, p=5" ~x_label:"number of tasks"
    ~xs:(range 100 200 10) ~replicates
    ~gen:(fun ~x ~seed -> chain_gen (Gen.default ~tasks:x ~types:5 ~machines:100) ~x ~seed)
    ~algos:(List.map Runner.heuristic [ Registry.H2; Registry.H3; Registry.H4w ])
    ()

let fig8 ?(replicates = 30) ?pool () =
  Runner.run ~id:"fig8" ?pool ~title:"High failure rates, m=10, p=5, f in [0,0.1]"
    ~x_label:"number of tasks" ~xs:(range 10 100 10) ~replicates
    ~gen:(fun ~x ~seed ->
      chain_gen (Gen.with_high_failures (Gen.default ~tasks:x ~types:5 ~machines:10)) ~x ~seed)
    ~algos:all_heuristics ()

let fig9 ?(replicates = 100) ?pool () =
  Runner.run ~id:"fig9" ?pool ~title:"One-to-one regime, m=n=100, f(i,u)=f_i"
    ~x_label:"number of types" ~xs:(range 20 100 10) ~replicates
    ~notes:
      [
        "OtO is the optimal one-to-one mapping (bottleneck assignment), \
         computable because failures are task-attached.";
      ]
    ~gen:(fun ~x ~seed ->
      let params =
        { (Gen.default ~tasks:100 ~types:x ~machines:100) with Gen.task_attached_failures = true }
      in
      chain_gen params ~x ~seed)
    ~algos:
      (List.map Runner.heuristic [ Registry.H2; Registry.H3; Registry.H4w ]
      @ [ Runner.oto_bottleneck ])
    ()

let small_exact_algos ~node_budget =
  all_heuristics @ [ Runner.exact_dfs ~node_budget ]

let fig10 ?(replicates = 30) ?(node_budget = 2_000_000) ?pool () =
  Runner.run ~id:"fig10" ?pool ~title:"Small instances vs exact optimum, m=5, p=2"
    ~x_label:"number of tasks" ~xs:(range 2 15 1) ~replicates
    ~notes:
      [
        "The MIP column is our exact branch-and-bound solver; the paper \
         used CPLEX on the same formulation.";
      ]
    ~gen:(fun ~x ~seed -> chain_gen (Gen.default ~tasks:x ~types:2 ~machines:5) ~x ~seed)
    ~algos:(small_exact_algos ~node_budget)
    ()

(* Fig. 11 is Fig. 10 normalised per instance by the exact optimum. *)
let fig11 ?replicates ?node_budget ?pool () =
  let base = fig10 ?replicates ?node_budget ?pool () in
  let points =
    List.map
      (fun (pt : Runner.point) ->
        let exact =
          match Runner.find_cell pt "MIP" with
          | Some c -> c.Runner.values
          | None -> [||]
        in
        let cells =
          List.filter_map
            (fun (c : Runner.cell) ->
              if c.Runner.label = "MIP" then None
              else begin
                let ratios =
                  Array.mapi
                    (fun rep v ->
                      match (v, if rep < Array.length exact then exact.(rep) else None) with
                      | Some period, Some opt when opt > 0.0 -> Some (period /. opt)
                      | _ -> None)
                    c.Runner.values
                in
                Some
                  {
                    c with
                    Runner.values = ratios;
                    Runner.successes =
                      Array.fold_left
                        (fun acc v -> if Option.is_some v then acc + 1 else acc)
                        0 ratios;
                  }
              end)
            pt.Runner.cells
        in
        { pt with Runner.cells })
      base.Runner.points
  in
  {
    base with
    Runner.id = "fig11";
    Runner.title = "Normalisation with the exact optimum, m=5, p=2";
    Runner.points = points;
    Runner.notes = [ "Values are per-instance ratios heuristic/optimal (1.0 = optimal)." ];
  }

let fig12 ?(replicates = 30) ?(node_budget = 2_000_000) ?pool () =
  Runner.run ~id:"fig12" ?pool ~title:"Exact comparison on m=9, p=4" ~x_label:"number of tasks"
    ~xs:(range 5 20 1) ~replicates
    ~notes:
      [
        "MIP cells report successes/trials: the node budget makes the exact \
         solver drop out on large n, as CPLEX did past 15 tasks in the paper.";
      ]
    ~gen:(fun ~x ~seed -> chain_gen (Gen.default ~tasks:x ~types:4 ~machines:9) ~x ~seed)
    ~algos:
      (List.map Runner.heuristic [ Registry.H2; Registry.H3; Registry.H4; Registry.H4w ]
      @ [ Runner.exact_dfs ~node_budget ])
    ()

(* The dynamic experiment is not one of the paper's figures: it pits the
   static H4w mapping against the same mapping plus the online re-mapper
   under machine breakdowns, with the availability-adjusted analytic
   bound as the reference curve.  Periods are *effective*: measurement
   window over produced outputs, so a dead bottleneck shows up as a
   longer period exactly like a slow machine would. *)
let dynamic_mtbf_periods = 48.0

let dynamic_mttr_periods = 16.0
let dynamic_horizon_periods = 600.0

let dynamic_sim label ~remap =
  {
    Runner.label;
    solve =
      (fun inst ~seed ->
        let mp = Registry.solve ~seed Registry.H4w inst in
        let p = Mf_core.Period.period inst mp in
        let bd =
          Mf_sim.Breakdown.uniform ~machines:(Mf_core.Instance.machines inst)
            ~mtbf:(dynamic_mtbf_periods *. p) ~mttr:(dynamic_mttr_periods *. p)
            ~crews:1 ()
        in
        let horizon = p *. dynamic_horizon_periods in
        let r =
          if remap then
            Mf_remap.Online.simulate ~breakdowns:bd ~horizon ~seed inst mp
          else Mf_sim.Desim.run ~breakdowns:bd ~horizon ~seed inst mp
        in
        if r.Mf_sim.Desim.outputs = 0 then None
        else Some (r.Mf_sim.Desim.window /. float_of_int r.Mf_sim.Desim.outputs))
  }

let dynamic_bound =
  {
    Runner.label = "bound";
    solve =
      (fun inst ~seed ->
        let mp = Registry.solve ~seed Registry.H4w inst in
        let p = Mf_core.Period.period inst mp in
        let bd =
          Mf_sim.Breakdown.uniform ~machines:(Mf_core.Instance.machines inst)
            ~mtbf:(dynamic_mtbf_periods *. p) ~mttr:(dynamic_mttr_periods *. p)
            ~crews:1 ()
        in
        let tp = Mf_sim.Metrics.adjusted_throughput inst mp bd in
        if tp > 0.0 then Some (1.0 /. tp) else None)
  }

let dynamic ?(replicates = 10) ?pool () =
  Runner.run ~id:"dynamic" ?pool
    ~title:
      (Printf.sprintf "Breakdowns and online re-mapping, m=6, p=2, mtbf=%gp, mttr=%gp"
         dynamic_mtbf_periods dynamic_mttr_periods)
    ~x_label:"number of tasks" ~xs:(range 10 40 10) ~replicates
    ~notes:
      [
        "Effective period: measurement window / outputs under per-machine \
         breakdowns (uniform law, one repair crew).";
        "bound is the availability-adjusted analytic period 1 / min_u \
         avail(u)/load(u); static leaves the H4w mapping alone; remap runs the \
         online re-mapper.";
      ]
    ~gen:(fun ~x ~seed -> chain_gen (Gen.default ~tasks:x ~types:2 ~machines:6) ~x ~seed)
    ~algos:
      [
        dynamic_bound;
        dynamic_sim "static" ~remap:false;
        dynamic_sim "remap" ~remap:true;
      ]
    ()

let all ?replicates ?node_budget ?pool () =
  [
    ("fig5", fun () -> fig5 ?replicates ?pool ());
    ("fig6", fun () -> fig6 ?replicates ?pool ());
    ("fig7", fun () -> fig7 ?replicates ?pool ());
    ("fig8", fun () -> fig8 ?replicates ?pool ());
    ("fig9", fun () -> fig9 ?replicates ?pool ());
    ("fig10", fun () -> fig10 ?replicates ?node_budget ?pool ());
    ("fig11", fun () -> fig11 ?replicates ?node_budget ?pool ());
    ("fig12", fun () -> fig12 ?replicates ?node_budget ?pool ());
    ("dynamic", fun () -> dynamic ?replicates ?pool ());
  ]
