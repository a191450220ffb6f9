(* Tests for mf_structures: Binary_heap, Dyn_array, Lru. *)

module Heap = Mf_structures.Binary_heap
module Ds = Mf_structures.Dyn_array

module Lru = Mf_structures.Lru.Make (struct
  type t = string

  let equal = String.equal
  let hash = Hashtbl.hash
end)

(* ------------------------------------------------------------------ *)
(* Binary_heap                                                         *)
(* ------------------------------------------------------------------ *)

let test_heap_basic () =
  let h = Heap.create ~cmp:compare in
  Alcotest.(check bool) "empty" true (Heap.is_empty h);
  Heap.push h 5;
  Heap.push h 1;
  Heap.push h 3;
  Alcotest.(check int) "length" 3 (Heap.length h);
  Alcotest.(check (option int)) "peek" (Some 1) (Heap.peek h);
  Alcotest.(check (option int)) "pop 1" (Some 1) (Heap.pop h);
  Alcotest.(check (option int)) "pop 2" (Some 3) (Heap.pop h);
  Alcotest.(check (option int)) "pop 3" (Some 5) (Heap.pop h);
  Alcotest.(check (option int)) "pop empty" None (Heap.pop h)

let test_heap_pop_exn () =
  let h = Heap.create ~cmp:compare in
  Alcotest.check_raises "raises" Not_found (fun () -> ignore (Heap.pop_exn h));
  Heap.push h 9;
  Alcotest.(check int) "pop_exn" 9 (Heap.pop_exn h)

let test_heap_of_array () =
  let h = Heap.of_array ~cmp:compare [| 4; 2; 9; 1; 7 |] in
  Alcotest.(check (list int)) "sorted drain" [ 1; 2; 4; 7; 9 ] (Heap.to_sorted_list h);
  (* to_sorted_list must not consume the heap. *)
  Alcotest.(check int) "intact" 5 (Heap.length h)

let test_heap_clear () =
  let h = Heap.of_array ~cmp:compare [| 3; 1 |] in
  Heap.clear h;
  Alcotest.(check bool) "cleared" true (Heap.is_empty h)

let test_heap_custom_order () =
  (* Max-heap through inverted comparison. *)
  let h = Heap.create ~cmp:(fun a b -> compare b a) in
  List.iter (Heap.push h) [ 1; 5; 3 ];
  Alcotest.(check (option int)) "max first" (Some 5) (Heap.pop h)

let prop_heap_sorts =
  QCheck.Test.make ~name:"heap: drains in sorted order" ~count:300
    QCheck.(list int)
    (fun xs ->
      let h = Heap.of_array ~cmp:compare (Array.of_list xs) in
      Heap.to_sorted_list h = List.sort compare xs)

let prop_heap_push_pop_sorts =
  QCheck.Test.make ~name:"heap: push then pop-all is sorted" ~count:300
    QCheck.(list int)
    (fun xs ->
      let h = Heap.create ~cmp:compare in
      List.iter (Heap.push h) xs;
      let rec drain acc = match Heap.pop h with None -> List.rev acc | Some x -> drain (x :: acc) in
      drain [] = List.sort compare xs)

(* ------------------------------------------------------------------ *)
(* Dyn_array                                                           *)
(* ------------------------------------------------------------------ *)

let test_dyn_array_basic () =
  let v = Ds.create () in
  Alcotest.(check bool) "empty" true (Ds.is_empty v);
  for i = 0 to 99 do
    Ds.push v i
  done;
  Alcotest.(check int) "length" 100 (Ds.length v);
  Alcotest.(check int) "get" 42 (Ds.get v 42);
  Ds.set v 42 (-1);
  Alcotest.(check int) "set" (-1) (Ds.get v 42);
  Alcotest.(check (option int)) "pop" (Some 99) (Ds.pop v);
  Alcotest.(check int) "length after pop" 99 (Ds.length v)

let test_dyn_array_bounds () =
  let v = Ds.of_array [| 1; 2 |] in
  Alcotest.check_raises "get oob" (Invalid_argument "Dyn_array: index out of bounds")
    (fun () -> ignore (Ds.get v 2))

let test_dyn_array_conversions () =
  let v = Ds.of_array [| 1; 2; 3 |] in
  Alcotest.(check (list int)) "to_list" [ 1; 2; 3 ] (Ds.to_list v);
  Alcotest.(check int) "fold" 6 (Ds.fold_left ( + ) 0 v);
  let acc = ref [] in
  Ds.iteri (fun i x -> acc := (i, x) :: !acc) v;
  Alcotest.(check int) "iteri count" 3 (List.length !acc)

let prop_dyn_array_push_to_array =
  QCheck.Test.make ~name:"dyn_array: pushes roundtrip through to_array" ~count:300
    QCheck.(list int)
    (fun xs ->
      let v = Ds.create () in
      List.iter (Ds.push v) xs;
      Ds.to_list v = xs)

(* ------------------------------------------------------------------ *)
(* Lru                                                                 *)
(* ------------------------------------------------------------------ *)

let test_lru_basic () =
  let c = Lru.create ~capacity:2 in
  Alcotest.(check int) "empty" 0 (Lru.length c);
  Alcotest.(check int) "capacity" 2 (Lru.capacity c);
  Lru.add c "a" 1;
  Lru.add c "b" 2;
  Alcotest.(check (option int)) "find a" (Some 1) (Lru.find c "a");
  Alcotest.(check (option int)) "find b" (Some 2) (Lru.find c "b");
  Alcotest.(check (option int)) "find missing" None (Lru.find c "z");
  Alcotest.(check int) "hits" 2 (Lru.hits c);
  Alcotest.(check int) "misses" 1 (Lru.misses c)

let test_lru_eviction_order () =
  let c = Lru.create ~capacity:2 in
  Lru.add c "a" 1;
  Lru.add c "b" 2;
  (* touch a so b becomes least-recently-used *)
  ignore (Lru.find c "a");
  Lru.add c "c" 3;
  Alcotest.(check int) "one eviction" 1 (Lru.evictions c);
  Alcotest.(check (option int)) "b evicted" None (Lru.find c "b");
  Alcotest.(check (option int)) "a kept" (Some 1) (Lru.find c "a");
  Alcotest.(check (option int)) "c kept" (Some 3) (Lru.find c "c");
  Alcotest.(check (list string)) "mru order" [ "c"; "a" ]
    (List.map fst (Lru.to_list c))

let test_lru_replace () =
  let c = Lru.create ~capacity:2 in
  Lru.add c "a" 1;
  Lru.add c "b" 2;
  (* replacing a key must not evict anything *)
  Lru.add c "a" 10;
  Alcotest.(check int) "no eviction on replace" 0 (Lru.evictions c);
  Alcotest.(check int) "length still 2" 2 (Lru.length c);
  Alcotest.(check (option int)) "new value" (Some 10) (Lru.find c "a");
  (* the replace promoted a, so b is now the eviction victim *)
  Lru.add c "c" 3;
  Alcotest.(check (option int)) "b evicted after replace-promotion" None (Lru.find c "b")

let test_lru_mem_remove_clear () =
  let c = Lru.create ~capacity:3 in
  Lru.add c "a" 1;
  (* mem neither promotes nor counts *)
  Alcotest.(check bool) "mem" true (Lru.mem c "a");
  Alcotest.(check int) "mem does not count hits" 0 (Lru.hits c);
  Lru.remove c "a";
  Alcotest.(check bool) "removed" false (Lru.mem c "a");
  Lru.add c "b" 2;
  ignore (Lru.find c "b");
  Lru.clear c;
  Alcotest.(check int) "cleared" 0 (Lru.length c);
  (* counters survive clear: they describe the cache's lifetime *)
  Alcotest.(check int) "hits survive clear" 1 (Lru.hits c)

let test_lru_capacity_validation () =
  Alcotest.check_raises "capacity 0" (Invalid_argument "Lru.create: capacity must be >= 1")
    (fun () -> ignore (Lru.create ~capacity:0))

(* Against a naive association-list model over random op sequences. *)
let prop_lru_model =
  QCheck.Test.make ~count:300 ~name:"lru: matches a naive model"
    QCheck.(list (pair (int_bound 7) small_int))
    (fun ops ->
      let capacity = 3 in
      let c = Lru.create ~capacity in
      (* model: MRU-first assoc list, truncated at capacity *)
      let model = ref [] in
      List.iter
        (fun (k, v) ->
          let key = string_of_int k in
          Lru.add c key v;
          let rest = List.remove_assoc key !model in
          let rest =
            if List.mem_assoc key !model then rest
            else if List.length rest >= capacity then
              List.filteri (fun i _ -> i < capacity - 1) rest
            else rest
          in
          model := (key, v) :: rest)
        ops;
      List.map fst (Lru.to_list c) = List.map fst !model
      && List.for_all (fun (k, v) -> Lru.find c k = Some v) !model)

let () =
  Alcotest.run "mf_structures"
    [
      ( "heap",
        [
          Alcotest.test_case "basic" `Quick test_heap_basic;
          Alcotest.test_case "pop_exn" `Quick test_heap_pop_exn;
          Alcotest.test_case "of_array" `Quick test_heap_of_array;
          Alcotest.test_case "clear" `Quick test_heap_clear;
          Alcotest.test_case "custom order" `Quick test_heap_custom_order;
        ] );
      ("heap-props", List.map QCheck_alcotest.to_alcotest [ prop_heap_sorts; prop_heap_push_pop_sorts ]);
      ( "dyn_array",
        [
          Alcotest.test_case "basic" `Quick test_dyn_array_basic;
          Alcotest.test_case "bounds" `Quick test_dyn_array_bounds;
          Alcotest.test_case "conversions" `Quick test_dyn_array_conversions;
        ] );
      ("dyn_array-props", List.map QCheck_alcotest.to_alcotest [ prop_dyn_array_push_to_array ]);
      ( "lru",
        [
          Alcotest.test_case "basic" `Quick test_lru_basic;
          Alcotest.test_case "eviction order" `Quick test_lru_eviction_order;
          Alcotest.test_case "replace" `Quick test_lru_replace;
          Alcotest.test_case "mem/remove/clear" `Quick test_lru_mem_remove_clear;
          Alcotest.test_case "capacity validation" `Quick test_lru_capacity_validation;
        ] );
      ("lru-props", List.map QCheck_alcotest.to_alcotest [ prop_lru_model ]);
    ]
