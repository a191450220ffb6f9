type t = H1 | H2 | H3 | H4 | H4w | H4f

let all = [ H1; H2; H3; H4; H4w; H4f ]

let name = function
  | H1 -> "H1"
  | H2 -> "H2"
  | H3 -> "H3"
  | H4 -> "H4"
  | H4w -> "H4w"
  | H4f -> "H4f"

(* Derived from [name] over [all] so the parse/print pair cannot drift
   apart: every printed name round-trips by construction, and a new
   catalogue entry is parseable the moment it prints. *)
let of_name s =
  let target = String.lowercase_ascii (String.trim s) in
  List.find_opt (fun h -> String.lowercase_ascii (name h) = target) all

let description = function
  | H1 -> "random grouping baseline"
  | H2 -> "binary search on the period, potential (rank) optimization"
  | H3 -> "binary search on the period, heterogeneous machines first"
  | H4 -> "greedy best performance (w * f * x)"
  | H4w -> "greedy fastest machine (w * x)"
  | H4f -> "greedy most reliable machine (f * x)"

let default_seed = 0

let solve ?(seed = default_seed) h inst =
  match h with
  | H1 -> H1_random.run (Mf_prng.Rng.create seed) inst
  | H2 -> H2_potential.run inst
  | H3 -> H3_heterogeneity.run inst
  | H4 -> H4_family.h4 inst
  | H4w -> H4_family.h4w inst
  | H4f -> H4_family.h4f inst

(* One seed for every listed heuristic: a caller's seed is never
   replaced by the default for a subset of the runs. *)
let best_of ?(seed = default_seed) hs inst =
  let pick =
    List.fold_left
      (fun acc h ->
        let mp = solve ~seed h inst in
        let p = Mf_core.Period.period inst mp in
        match acc with Some (_, bp) when bp <= p -> acc | _ -> Some (mp, p))
      None hs
  in
  match pick with Some r -> r | None -> invalid_arg "Registry.best_of: no heuristic"

let best ?seed inst = best_of ?seed all inst
