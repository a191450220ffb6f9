module Registry = Mf_heuristics.Registry
module Period = Mf_core.Period

type algo = { label : string; solve : Mf_core.Instance.t -> seed:int -> float option }

type cell = { label : string; values : float option array; successes : int; trials : int }

type point = { x : int; cells : cell list }

type figure = {
  id : string;
  title : string;
  x_label : string;
  points : point list;
  notes : string list;
}

let heuristic h =
  {
    label = Registry.name h;
    solve = (fun inst ~seed -> Some (Period.period inst (Registry.solve ~seed h inst)));
  }

let oto_bottleneck =
  {
    label = "OtO";
    solve =
      (fun inst ~seed:_ ->
        let _, period = Mf_exact.Oto.bottleneck inst in
        Some period);
  }

let exact_dfs ~node_budget =
  {
    label = "MIP";
    solve =
      (fun inst ~seed:_ ->
        let r = Mf_exact.Dfs.specialized ~node_budget inst in
        if r.Mf_exact.Dfs.optimal then Some r.Mf_exact.Dfs.period else None);
  }

(* One Splitmix64 finalisation per absorbed word.  The finaliser is a
   bijection of [acc xor v], so every absorbed byte/integer feeds the full
   64-bit state — unlike [Hashtbl.hash], which folds to 30 bits and
   collides across (x, rep) pairs, silently correlating replicates. *)
let absorb acc v =
  Mf_prng.Splitmix64.next (Mf_prng.Splitmix64.create (Int64.logxor acc v))

let derive_seed ~id ~x ~rep =
  (* Absorbing the length first domain-separates the id bytes from the
     x/rep integers ("fig51", x=0 must not alias "fig5", x=10). *)
  let acc = ref (absorb 0x6D61702D72756E65L (Int64.of_int (String.length id))) in
  String.iter (fun c -> acc := absorb !acc (Int64.of_int (Char.code c))) id;
  acc := absorb !acc (Int64.of_int x);
  acc := absorb !acc (Int64.of_int rep);
  Int64.to_int (Int64.logand !acc 0x3FFFFFFFFFFFFFFFL)

let run ~id ~title ~x_label ?(notes = []) ?pool ?chunk ~xs ~replicates ~gen ~algos () =
  let algos = Array.of_list algos in
  let n_algos = Array.length algos in
  let xs_arr = Array.of_list xs in
  let nx = Array.length xs_arr in
  (* One unit of work per (x, replicate) pair of the whole grid — not per
     (algorithm, replicate) of one point: the instance is generated once
     and solved by every algorithm in registration order, and fanning the
     entire grid out in a single batch gives the pool coarse chunks to
     amortise synchronisation over.  Each unit is a pure function of
     (id, x, rep), and results are placed by index, so the figure is
     identical with or without a pool, for any chunk value. *)
  let solve_unit k =
    let xi = k / replicates and rep = k mod replicates in
    let x = xs_arr.(xi) in
    let seed = derive_seed ~id ~x ~rep in
    let inst = gen ~x ~seed in
    Array.map (fun algo -> algo.solve inst ~seed) algos
  in
  let units = Array.init (nx * replicates) Fun.id in
  let slots =
    match pool with
    | Some pool -> Mf_parallel.Pool.map_array ?chunk pool units ~f:solve_unit
    | None -> Array.map solve_unit units
  in
  let points =
    List.init nx (fun xi ->
        let cells =
          List.init n_algos (fun ai ->
              let values = Array.init replicates (fun rep -> slots.((xi * replicates) + rep).(ai)) in
              {
                label = algos.(ai).label;
                values;
                successes =
                  Array.fold_left (fun acc v -> if Option.is_some v then acc + 1 else acc) 0 values;
                trials = replicates;
              })
        in
        { x = xs_arr.(xi); cells })
  in
  { id; title; x_label; points; notes }

let successful cell =
  Array.of_list (List.filter_map Fun.id (Array.to_list cell.values))

let mean cell =
  let ok = successful cell in
  if Array.length ok = 0 then nan else Mf_numeric.Stats.mean ok

let find_cell point label = List.find_opt (fun c -> c.label = label) point.cells
