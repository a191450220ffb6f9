(* Tests for mf_prng: determinism, ranges, statistical sanity, splitting. *)

module Rng = Mf_prng.Rng
module Splitmix64 = Mf_prng.Splitmix64
module Xoshiro256 = Mf_prng.Xoshiro256

let test_splitmix_reference () =
  (* Reference values for seed 1234567 from the public-domain C code. *)
  let sm = Splitmix64.create 1234567L in
  let v1 = Splitmix64.next sm in
  let v2 = Splitmix64.next sm in
  Alcotest.(check bool) "distinct outputs" true (v1 <> v2);
  (* Determinism: same seed, same stream. *)
  let sm' = Splitmix64.create 1234567L in
  Alcotest.(check int64) "deterministic 1" v1 (Splitmix64.next sm');
  Alcotest.(check int64) "deterministic 2" v2 (Splitmix64.next sm')

let test_xoshiro_deterministic () =
  let a = Xoshiro256.create 42L and b = Xoshiro256.create 42L in
  for i = 0 to 99 do
    Alcotest.(check int64)
      (Printf.sprintf "step %d" i)
      (Xoshiro256.next a) (Xoshiro256.next b)
  done

let test_xoshiro_copy_independent () =
  let a = Xoshiro256.create 7L in
  ignore (Xoshiro256.next a);
  let b = Xoshiro256.copy a in
  let va = Xoshiro256.next a in
  let vb = Xoshiro256.next b in
  Alcotest.(check int64) "copies agree" va vb;
  ignore (Xoshiro256.next a);
  (* b has consumed one fewer value. *)
  let va2 = Xoshiro256.next a and vb2 = Xoshiro256.next b in
  Alcotest.(check bool) "streams diverge after unequal consumption" true (va2 <> vb2)

let test_xoshiro_jump_disjoint () =
  (* After a jump the streams should not collide over a modest window. *)
  let a = Xoshiro256.create 99L in
  let b = Xoshiro256.copy a in
  Xoshiro256.jump b;
  let seen = Hashtbl.create 4096 in
  for _ = 1 to 2000 do
    Hashtbl.replace seen (Xoshiro256.next a) ()
  done;
  let collisions = ref 0 in
  for _ = 1 to 2000 do
    if Hashtbl.mem seen (Xoshiro256.next b) then incr collisions
  done;
  Alcotest.(check int) "no collisions" 0 !collisions

(* The first 64 outputs of four seeds, as an MD5 digest of their
   little-endian bytes: straight from [create], from a [copy] taken after
   those 64 (the original must continue identically), after a [jump], and
   for both sides of a [split] (child, then the advanced parent).
   Recorded from the record-of-int64 implementation, so a change of the
   state's representation must keep every stream bit for bit. *)
let test_xoshiro_stream_pin () =
  let digest g =
    let b = Buffer.create 512 in
    for _ = 1 to 64 do
      Buffer.add_int64_le b (Xoshiro256.next g)
    done;
    Digest.to_hex (Digest.string (Buffer.contents b))
  in
  List.iter
    (fun (seed, created, copied, jumped, child, parent) ->
      let what s = Printf.sprintf "seed %d: %s" seed s in
      let seed = Int64.of_int seed in
      let g = Xoshiro256.create seed in
      Alcotest.(check string) (what "create") created (digest g);
      let c = Xoshiro256.copy g in
      Alcotest.(check string) (what "copy") copied (digest c);
      Alcotest.(check string) (what "original after copy") copied (digest g);
      let j = Xoshiro256.create seed in
      Xoshiro256.jump j;
      Alcotest.(check string) (what "jump") jumped (digest j);
      let p = Xoshiro256.create seed in
      let ch = Xoshiro256.split p in
      Alcotest.(check string) (what "split child") child (digest ch);
      Alcotest.(check string) (what "split parent") parent (digest p))
    [
      ( 0,
        "20f68e14f3ff55a37d6919ea77691ea4",
        "57850a106d3b4d55ca4f38062a7ce093",
        "0177b88ed1918eeabb15c09d7eb3a87a",
        "0177b88ed1918eeabb15c09d7eb3a87a",
        "e085a76b8b2aa04d38295a98bdca7a22" );
      ( 1,
        "d1316f253bb901074d90091432859fda",
        "15e52ed98376c2b7d468962688991c24",
        "1a817e408024101c5a4db396a02531b9",
        "1a817e408024101c5a4db396a02531b9",
        "6c1c762e0841d8d8e4931a2aa5d5ed7a" );
      ( 42,
        "b116b7826bdb34e788594f1e901f0128",
        "eb885e047209cb9ef7d4fdaf0a97a737",
        "b81f5bb2a72352bec2d3a3ee53fa28e6",
        "b81f5bb2a72352bec2d3a3ee53fa28e6",
        "fc47e7889d1e176d5ba846efccc5f7d9" );
      ( max_int,
        "b22ace5ffd309e4acabcecde91751885",
        "7c453d9a3b3f8bf4f969488cb8faa94e",
        "aed4f20322b65d5e9675eb62cc5965e5",
        "aed4f20322b65d5e9675eb62cc5965e5",
        "917a9f0fa074c63bede01e670136aab6" );
    ]

let test_rng_float_range () =
  let rng = Rng.create 3 in
  for _ = 1 to 1000 do
    let x = Rng.float rng 10.0 in
    Alcotest.(check bool) "in [0,10)" true (x >= 0.0 && x < 10.0)
  done;
  Alcotest.check_raises "bad bound" (Invalid_argument "Rng.float: non-positive bound")
    (fun () -> ignore (Rng.float rng 0.0))

let test_rng_uniform_range () =
  let rng = Rng.create 4 in
  for _ = 1 to 1000 do
    let x = Rng.uniform rng ~lo:100.0 ~hi:1000.0 in
    Alcotest.(check bool) "in [100,1000)" true (x >= 100.0 && x < 1000.0)
  done

let test_rng_int_range () =
  let rng = Rng.create 5 in
  let counts = Array.make 6 0 in
  for _ = 1 to 6000 do
    let v = Rng.int rng 6 in
    counts.(v) <- counts.(v) + 1
  done;
  Array.iteri
    (fun i c ->
      Alcotest.(check bool) (Printf.sprintf "face %d roughly uniform" i) true (c > 800 && c < 1200))
    counts;
  for _ = 1 to 100 do
    let v = Rng.int_range rng ~lo:(-5) ~hi:5 in
    Alcotest.(check bool) "in [-5,5]" true (v >= -5 && v <= 5)
  done

let test_rng_bernoulli () =
  let rng = Rng.create 6 in
  let hits = ref 0 in
  let n = 20000 in
  for _ = 1 to n do
    if Rng.bernoulli rng 0.02 then incr hits
  done;
  let rate = float_of_int !hits /. float_of_int n in
  Alcotest.(check bool) "2% failure rate" true (rate > 0.015 && rate < 0.026);
  Alcotest.(check bool) "p=0 never" false (Rng.bernoulli rng 0.0);
  Alcotest.(check bool) "p=1 always" true (Rng.bernoulli rng 1.0)

let test_rng_exponential () =
  let rng = Rng.create 7 in
  let n = 20000 in
  let acc = ref 0.0 in
  for _ = 1 to n do
    let x = Rng.exponential rng ~rate:2.0 in
    Alcotest.(check bool) "positive" true (x >= 0.0);
    acc := !acc +. x
  done;
  let mean = !acc /. float_of_int n in
  Alcotest.(check bool) "mean near 1/rate" true (Float.abs (mean -. 0.5) < 0.02)

let test_rng_shuffle_permutation () =
  let rng = Rng.create 8 in
  let xs = Array.init 50 Fun.id in
  Rng.shuffle rng xs;
  let sorted = Array.copy xs in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 50 Fun.id) sorted

let test_rng_split_independent () =
  let rng = Rng.create 9 in
  let child = Rng.split rng in
  let seen = Hashtbl.create 1024 in
  for _ = 1 to 1000 do
    Hashtbl.replace seen (Rng.int64 rng) ()
  done;
  let collisions = ref 0 in
  for _ = 1 to 1000 do
    if Hashtbl.mem seen (Rng.int64 child) then incr collisions
  done;
  Alcotest.(check int) "split streams disjoint" 0 !collisions

let test_rng_mean_of_uniform () =
  let rng = Rng.create 10 in
  let n = 50000 in
  let acc = ref 0.0 in
  for _ = 1 to n do
    acc := !acc +. Rng.float rng 1.0
  done;
  let mean = !acc /. float_of_int n in
  Alcotest.(check bool) "mean near 0.5" true (Float.abs (mean -. 0.5) < 0.01)

(* A Bernoulli draw allocates at most the box of one int64 (3 words):
   generator state that boxes on every step shows up as 20 or more.
   Native code only: bytecode boxes every float. *)
let test_rng_bernoulli_allocation () =
  match Sys.backend_type with
  | Sys.Bytecode | Sys.Other _ -> Alcotest.skip ()
  | Sys.Native ->
    let rng = Rng.create 3 in
    let draws = 100_000 and hits = ref 0 in
    let before = Gc.minor_words () in
    for _ = 1 to draws do
      if Rng.bernoulli rng 0.3 then incr hits
    done;
    let per_draw = (Gc.minor_words () -. before) /. float_of_int draws in
    Alcotest.(check bool)
      (Printf.sprintf "%.1f minor words per draw <= 6" per_draw)
      true (per_draw <= 6.0);
    Alcotest.(check bool) "draws hit about 30%" true (!hits > 29_000 && !hits < 31_000)

let prop_choose_member =
  QCheck.Test.make ~name:"rng: choose returns a member" ~count:200
    QCheck.(pair small_int (array_of_size Gen.(int_range 1 20) int))
    (fun (seed, xs) ->
      let rng = Rng.create (abs seed) in
      let picked = Rng.choose rng xs in
      Array.exists (fun x -> x = picked) xs)

let prop_int_in_bounds =
  QCheck.Test.make ~name:"rng: int stays in bounds" ~count:500
    QCheck.(pair small_int (int_range 1 1_000_000))
    (fun (seed, bound) ->
      let rng = Rng.create (abs seed) in
      let v = Rng.int rng bound in
      v >= 0 && v < bound)

let () =
  Alcotest.run "mf_prng"
    [
      ( "generators",
        [
          Alcotest.test_case "splitmix64" `Quick test_splitmix_reference;
          Alcotest.test_case "xoshiro determinism" `Quick test_xoshiro_deterministic;
          Alcotest.test_case "xoshiro copy" `Quick test_xoshiro_copy_independent;
          Alcotest.test_case "xoshiro jump" `Quick test_xoshiro_jump_disjoint;
          Alcotest.test_case "xoshiro stream pin" `Quick test_xoshiro_stream_pin;
        ] );
      ( "rng",
        [
          Alcotest.test_case "float range" `Quick test_rng_float_range;
          Alcotest.test_case "uniform range" `Quick test_rng_uniform_range;
          Alcotest.test_case "int uniformity" `Quick test_rng_int_range;
          Alcotest.test_case "bernoulli" `Quick test_rng_bernoulli;
          Alcotest.test_case "exponential" `Quick test_rng_exponential;
          Alcotest.test_case "shuffle" `Quick test_rng_shuffle_permutation;
          Alcotest.test_case "split" `Quick test_rng_split_independent;
          Alcotest.test_case "uniform mean" `Quick test_rng_mean_of_uniform;
          Alcotest.test_case "bernoulli allocation" `Quick test_rng_bernoulli_allocation;
        ] );
      ( "rng-props",
        List.map QCheck_alcotest.to_alcotest [ prop_choose_member; prop_int_in_bounds ] );
    ]
