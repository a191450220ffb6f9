module Make (K : Hashtbl.HashedType) = struct
  module H = Hashtbl.Make (K)

  type 'a node = {
    key : K.t;
    mutable value : 'a;
    mutable prev : 'a node option;  (* toward the MRU end *)
    mutable next : 'a node option;  (* toward the LRU end *)
  }

  type 'a t = {
    cap : int;
    table : 'a node H.t;
    mutable head : 'a node option;  (* most recently used *)
    mutable tail : 'a node option;  (* least recently used *)
    mutable hits : int;
    mutable misses : int;
    mutable evictions : int;
  }

  let create ~capacity =
    if capacity < 1 then invalid_arg "Lru.create: capacity must be >= 1";
    {
      cap = capacity;
      table = H.create (min capacity 64);
      head = None;
      tail = None;
      hits = 0;
      misses = 0;
      evictions = 0;
    }

  let capacity t = t.cap
  let length t = H.length t.table
  let hits t = t.hits
  let misses t = t.misses
  let evictions t = t.evictions

  let unlink t node =
    (match node.prev with Some p -> p.next <- node.next | None -> t.head <- node.next);
    (match node.next with Some n -> n.prev <- node.prev | None -> t.tail <- node.prev);
    node.prev <- None;
    node.next <- None

  let push_front t node =
    node.prev <- None;
    node.next <- t.head;
    (match t.head with Some h -> h.prev <- Some node | None -> t.tail <- Some node);
    t.head <- Some node

  let promote t node =
    match t.head with
    | Some h when h == node -> ()
    | _ ->
      unlink t node;
      push_front t node

  let probe t k =
    match H.find_opt t.table k with
    | None -> None
    | Some node ->
      t.hits <- t.hits + 1;
      promote t node;
      Some node.value

  let find t k =
    match probe t k with
    | None ->
      t.misses <- t.misses + 1;
      None
    | hit -> hit

  let mem t k = H.mem t.table k

  let evict_lru t =
    match t.tail with
    | None -> ()
    | Some node ->
      unlink t node;
      H.remove t.table node.key;
      t.evictions <- t.evictions + 1

  let add t k v =
    match H.find_opt t.table k with
    | Some node ->
      node.value <- v;
      promote t node
    | None ->
      if H.length t.table >= t.cap then evict_lru t;
      let node = { key = k; value = v; prev = None; next = None } in
      H.replace t.table k node;
      push_front t node

  let remove t k =
    match H.find_opt t.table k with
    | None -> ()
    | Some node ->
      unlink t node;
      H.remove t.table k

  let clear t =
    H.reset t.table;
    t.head <- None;
    t.tail <- None

  let to_list t =
    let rec go acc = function
      | None -> List.rev acc
      | Some node -> go ((node.key, node.value) :: acc) node.next
    in
    go [] t.head
end
