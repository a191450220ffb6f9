(* Per-layer accumulators of the traced run: named sums (seconds, counts)
   filled by timing wrappers around each layer's public entry points. *)

let table : (string, float) Hashtbl.t = Hashtbl.create 64

let add name v =
  Hashtbl.replace table name (v +. Option.value (Hashtbl.find_opt table name) ~default:0.0)

let get name = Option.value (Hashtbl.find_opt table name) ~default:0.0

(* [span name f] runs [f ()], adding its wall seconds to [name ^ ".s"]
   and one to [name ^ ".calls"]. *)
let span name f =
  let t0 = Common.now () in
  let r = f () in
  add (name ^ ".s") (Common.now () -. t0);
  add (name ^ ".calls") 1.0;
  r

let secs name = get (name ^ ".s")
let calls name = get (name ^ ".calls")

(* Mean microseconds per call of a span ([0] when never called). *)
let us_per_call name =
  let c = calls name in
  if c = 0.0 then 0.0 else 1e6 *. secs name /. c
