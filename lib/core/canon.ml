type t = {
  instance : Instance.t;
  key : string;
  of_canon : int array;
  to_canon : int array;
  type_of_canon : int array;
}

(* First-appearance relabeling over the fixed task order: label arrays
   related by a bijection normalize to the same array. *)
let first_appearance_types wf =
  let n = Workflow.task_count wf in
  let p = Workflow.type_count wf in
  let canon_of_type = Array.make p (-1) in
  let type_of_canon = Array.make p (-1) in
  let next = ref 0 in
  let types =
    Array.init n (fun i ->
        let raw = Workflow.ttype wf i in
        if canon_of_type.(raw) < 0 then begin
          canon_of_type.(raw) <- !next;
          type_of_canon.(!next) <- raw;
          incr next
        end;
        canon_of_type.(raw))
  in
  (* Workflow guarantees every type in [0, p) is used, so the relabeling
     is a full bijection by the time the scan ends. *)
  assert (!next = p);
  (types, type_of_canon)

(* Lexicographic, bit-exact order on machine columns: the w column first,
   then the f column.  Ties (bit-identical columns — exactly the classes
   of Symmetry.machine_classes) break toward the lower original index,
   which keeps the sort deterministic without affecting the canonical
   instance: tied columns are interchangeable. *)
let compare_columns inst u v =
  let n = Instance.task_count inst in
  let rec go_w i =
    if i = n then go_f 0
    else
      let c = Float.compare (Instance.w inst i u) (Instance.w inst i v) in
      if c <> 0 then c else go_w (i + 1)
  and go_f i =
    if i = n then 0
    else
      let c = Float.compare (Instance.f inst i u) (Instance.f inst i v) in
      if c <> 0 then c else go_f (i + 1)
  in
  go_w 0

(* One little-endian 64-bit word each: n, m, the types, the successors
   (-1 for none), then the IEEE bits of every w entry and every f entry,
   row by row.  n and m fix the length, so the image is self-delimiting:
   no key is a prefix of a key of another size. *)
let binary_key ~types ~successor ~w ~f =
  let n = Array.length types and m = Array.length w.(0) in
  let nm = n * m in
  let b = Bytes.create (8 * (2 + (2 * n) + (2 * nm))) in
  let int k v = Bytes.set_int64_le b (8 * k) (Int64.of_int v) in
  let bits k x = Bytes.set_int64_le b (8 * k) (Int64.bits_of_float x) in
  int 0 n;
  int 1 m;
  for i = 0 to n - 1 do
    int (2 + i) types.(i);
    int (2 + n + i) (match successor.(i) with None -> -1 | Some j -> j);
    let row = 2 + (2 * n) + (i * m) in
    for u = 0 to m - 1 do
      bits (row + u) w.(i).(u);
      bits (row + nm + u) f.(i).(u)
    done
  done;
  Bytes.unsafe_to_string b

let canonicalize inst =
  let n = Instance.task_count inst in
  let m = Instance.machines inst in
  let wf = Instance.workflow inst in
  let types, type_of_canon = first_appearance_types wf in
  let of_canon = Array.init m Fun.id in
  Array.sort
    (fun u v ->
      let c = compare_columns inst u v in
      if c <> 0 then c else Stdlib.compare u v)
    of_canon;
  let to_canon = Array.make m (-1) in
  Array.iteri (fun c u -> to_canon.(u) <- c) of_canon;
  let w = Array.init n (fun i -> Array.init m (fun c -> Instance.w inst i of_canon.(c))) in
  let f = Array.init n (fun i -> Array.init m (fun c -> Instance.f inst i of_canon.(c))) in
  let successor = Array.init n (Workflow.successor wf) in
  let workflow = Workflow.in_forest ~types ~successor in
  {
    instance = Instance.create ~workflow ~machines:m ~w ~f;
    key = binary_key ~types ~successor ~w ~f;
    of_canon;
    to_canon;
    type_of_canon;
  }

let key inst = (canonicalize inst).key
let map_from_canon t alloc = Array.map (fun c -> t.of_canon.(c)) alloc
let map_to_canon t alloc = Array.map (fun u -> t.to_canon.(u)) alloc
