type t = Xoshiro256.t

let create seed = Xoshiro256.create (Int64.of_int seed)
let copy = Xoshiro256.copy
let split = Xoshiro256.split
let int64 = Xoshiro256.next

(* 53 random mantissa bits, uniform in [0,1).  Inlined, so the draws
   built on it do not box the float. *)
let[@inline] unit_float t =
  let bits = Int64.shift_right_logical (Xoshiro256.next t) 11 in
  Int64.to_float bits *. 0x1.0p-53

let float t bound =
  if bound <= 0.0 then invalid_arg "Rng.float: non-positive bound";
  unit_float t *. bound

let uniform t ~lo ~hi =
  if hi <= lo then invalid_arg "Rng.uniform: empty range";
  lo +. (unit_float t *. (hi -. lo))

(* Unbiased bounded integers by rejection sampling on the top bits. *)
let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: non-positive bound";
  let bound64 = Int64.of_int bound in
  let rec draw () =
    let raw = Int64.shift_right_logical (Xoshiro256.next t) 1 in
    let v = Int64.rem raw bound64 in
    (* Reject draws from the final partial block. *)
    if Int64.sub raw v > Int64.sub (Int64.sub Int64.max_int bound64) 1L then draw ()
    else Int64.to_int v
  in
  draw ()

let int_range t ~lo ~hi =
  if hi < lo then invalid_arg "Rng.int_range: empty range";
  lo + int t (hi - lo + 1)

let bool t = Int64.logand (Xoshiro256.next t) 1L = 1L

let bernoulli t p =
  if p <= 0.0 then false else if p >= 1.0 then true else unit_float t < p

let exponential t ~rate =
  if rate <= 0.0 then invalid_arg "Rng.exponential: non-positive rate";
  (* 1 - u is in (0, 1], so the log is finite. *)
  -.log (1.0 -. unit_float t) /. rate

let shuffle t xs =
  for i = Array.length xs - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = xs.(i) in
    xs.(i) <- xs.(j);
    xs.(j) <- tmp
  done

let choose t xs =
  if Array.length xs = 0 then invalid_arg "Rng.choose: empty array";
  xs.(int t (Array.length xs))
