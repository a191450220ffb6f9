module Lru = Mf_structures.Lru.Make (struct
  type t = string

  let equal = String.equal
  let hash = Hashtbl.hash
end)

type entry = {
  status : Solver.status;
  period : float option;
  alloc : int array option;
  lower_bound : float option;
  engines : Solver.engine_id list;
  stats : Solver.stats;
}

(* The recency list behind [Lru] is not thread-safe, and the daemon
   shares one cache across request worker threads — every operation is
   mutex-wrapped here (uncontended in single-threaded use). *)
type t = { lru : entry Lru.t; lock : Mutex.t }

let default_capacity = 4096

let create ?(capacity = default_capacity) () =
  { lru = Lru.create ~capacity; lock = Mutex.create () }

let locked c f = Mutex.protect c.lock (fun () -> f c.lru)

let request_key (canon : Mf_core.Canon.t) (req : Solver.request) =
  (* %h renders floats exactly (hex), so setup never aliases under
     formatting; the canonical key already pins the instance bits, and
     its length follows from its first 16 bytes, so the suffix cannot
     alias into it *)
  Printf.sprintf "%s|rule=%s|seed=%d|setup=%h|budget=%s|cert=%b" canon.Mf_core.Canon.key
    (Mf_core.Mapping.rule_name req.Solver.rule)
    req.Solver.seed req.Solver.setup
    (Solver.budget_repr req.Solver.budget)
    req.Solver.want_certificate

let find c key = locked c (fun lru -> Lru.find lru key)
let probe c key = locked c (fun lru -> Lru.probe lru key)
let add c key e = locked c (fun lru -> Lru.add lru key e)
let clear c = locked c Lru.clear

type stats = { hits : int; misses : int; evictions : int; length : int; capacity : int }

let stats c =
  locked c (fun lru ->
      {
        hits = Lru.hits lru;
        misses = Lru.misses lru;
        evictions = Lru.evictions lru;
        length = Lru.length lru;
        capacity = Lru.capacity lru;
      })

let hit_rate c =
  locked c (fun lru ->
      let h = Lru.hits lru and m = Lru.misses lru in
      if h + m = 0 then 0.0 else float_of_int h /. float_of_int (h + m))
