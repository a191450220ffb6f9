module Instance = Mf_core.Instance
module Workflow = Mf_core.Workflow

type partition_instance = { z : int array; target : int }

let validate p =
  let len = Array.length p.z in
  if len = 0 || len mod 3 <> 0 then
    invalid_arg "Reduction: need 3k integers";
  if Array.exists (fun v -> v <= 0) p.z then
    invalid_arg "Reduction: integers must be positive";
  let k = len / 3 in
  let sum = Array.fold_left ( + ) 0 p.z in
  if sum <> k * p.target then
    invalid_arg "Reduction: integers must sum to k * target"

let build p =
  validate p;
  if Array.exists (fun v -> v > 40) p.z then
    invalid_arg "Reduction: z values above 40 lose exactness in floats";
  let k = Array.length p.z / 3 in
  let n = (3 * k) + 1 in
  (* Tasks 3i, 3i+1, 3i+2 form chain i; task 3k is the shared final task.
     Chains: T(3i) -> T(3i+1) -> T(3i+2) -> T(3k). *)
  let successor =
    Array.init n (fun i ->
        if i = 3 * k then None
        else if i mod 3 = 2 then Some (3 * k)
        else Some (i + 1))
  in
  (* One-to-one mappings ignore types; give every task its own type so the
     instance stays maximally general. *)
  let types = Array.init n Fun.id in
  let workflow = Workflow.in_forest ~types ~successor in
  let m = n in
  let w = Array.make_matrix n m 1.0 in
  let f =
    Array.init n (fun _ ->
        Array.init m (fun u ->
            if u = m - 1 then 0.0
            else begin
              let pow = Float.ldexp 1.0 p.z.(u) in
              (pow -. 1.0) /. pow
            end))
  in
  Instance.create ~workflow ~machines:m ~w ~f

let threshold p = Float.ldexp 1.0 p.target

let solvable_by_oracle p =
  let inst = build p in
  let r = Dfs.one_to_one inst in
  if not r.Dfs.optimal then failwith "Reduction: oracle exceeded its node budget";
  (* Guard against float drift: the optimum is a product of powers of two,
     hence exact; compare with a hair of slack anyway. *)
  r.Dfs.period <= threshold p *. (1.0 +. 1e-9)

let brute_force_3partition p =
  validate p;
  let len = Array.length p.z in
  let k = len / 3 in
  let used = Array.make len false in
  (* Assign greedily triple by triple; anchor each triple at the first
     unused element to avoid permutation blow-up. *)
  let rec fill remaining =
    if remaining = 0 then true
    else begin
      let a = ref (-1) in
      (try
         for i = 0 to len - 1 do
           if not used.(i) then begin
             a := i;
             raise Exit
           end
         done
       with Exit -> ());
      let i = !a in
      used.(i) <- true;
      let found = ref false in
      (try
         for j = i + 1 to len - 1 do
           if (not !found) && not used.(j) then begin
             used.(j) <- true;
             for l = j + 1 to len - 1 do
               if (not !found) && (not used.(l)) && p.z.(i) + p.z.(j) + p.z.(l) = p.target
               then begin
                 used.(l) <- true;
                 if fill (remaining - 1) then begin
                   found := true;
                   raise Exit
                 end;
                 used.(l) <- false
               end
             done;
             used.(j) <- false
           end
         done
       with Exit -> ());
      if not !found then used.(i) <- false;
      !found
    end
  in
  fill k
