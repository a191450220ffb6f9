(* Tests for the mf_numeric substrate: Bigint, Rat, Ordered_field, Kahan,
   Stats. *)

module B = Mf_numeric.Bigint
module R = Mf_numeric.Rat
module Kahan = Mf_numeric.Kahan
module Stats = Mf_numeric.Stats

let check_b msg expected actual =
  Alcotest.(check string) msg expected (B.to_string actual)

(* ------------------------------------------------------------------ *)
(* Bigint unit tests                                                   *)
(* ------------------------------------------------------------------ *)

let test_bigint_of_int () =
  check_b "zero" "0" (B.of_int 0);
  check_b "small" "42" (B.of_int 42);
  check_b "negative" "-42" (B.of_int (-42));
  check_b "base boundary" "32768" (B.of_int 32768);
  check_b "max_int" (string_of_int max_int) (B.of_int max_int);
  check_b "min_int" (string_of_int min_int) (B.of_int min_int)

let test_bigint_to_int () =
  Alcotest.(check (option int)) "roundtrip" (Some 123456789) (B.to_int (B.of_int 123456789));
  Alcotest.(check (option int)) "min_int" (Some min_int) (B.to_int (B.of_int min_int));
  Alcotest.(check (option int)) "max_int" (Some max_int) (B.to_int (B.of_int max_int));
  let too_big = B.mul (B.of_int max_int) (B.of_int 2) in
  Alcotest.(check (option int)) "overflow" None (B.to_int too_big);
  let too_small = B.sub (B.of_int min_int) B.one in
  Alcotest.(check (option int)) "underflow" None (B.to_int too_small)

let test_bigint_add_sub () =
  check_b "add" "1000000000000000000000" (B.add (B.of_string "999999999999999999999") B.one);
  check_b "sub to zero" "0" (B.sub (B.of_int 7) (B.of_int 7));
  check_b "sub negative" "-3" (B.sub (B.of_int 4) (B.of_int 7));
  check_b "mixed signs" "1" (B.add (B.of_int 5) (B.of_int (-4)))

let test_bigint_mul () =
  check_b "square" "152415787532388367501905199875019052100"
    (let x = B.of_string "12345678901234567890" in
     B.mul x x);
  check_b "by zero" "0" (B.mul (B.of_int 12345) B.zero);
  check_b "signs" "-6" (B.mul (B.of_int 2) (B.of_int (-3)))

let test_bigint_divmod () =
  let q, r = B.divmod (B.of_int 17) (B.of_int 5) in
  check_b "q" "3" q;
  check_b "r" "2" r;
  let q, r = B.divmod (B.of_int (-17)) (B.of_int 5) in
  check_b "q neg" "-3" q;
  check_b "r neg" "-2" r;
  let q, r = B.divmod (B.of_int 17) (B.of_int (-5)) in
  check_b "q negdiv" "-3" q;
  check_b "r negdiv" "2" r;
  let big = B.of_string "123456789012345678901234567890" in
  let q, r = B.divmod big (B.of_string "9876543210") in
  check_b "big q" "12499999887343749990" q;
  check_b "big r" "1562499990" r;
  Alcotest.check_raises "div by zero" Division_by_zero (fun () ->
      ignore (B.divmod B.one B.zero))

let test_bigint_gcd () =
  check_b "gcd" "6" (B.gcd (B.of_int 48) (B.of_int 18));
  check_b "gcd neg" "6" (B.gcd (B.of_int (-48)) (B.of_int 18));
  check_b "gcd zero" "5" (B.gcd B.zero (B.of_int 5));
  check_b "coprime" "1" (B.gcd (B.of_int 35) (B.of_int 64))

let test_bigint_pow () =
  check_b "2^100" "1267650600228229401496703205376" (B.pow B.two 100);
  check_b "x^0" "1" (B.pow (B.of_int 999) 0);
  check_b "0^5" "0" (B.pow B.zero 5)

let test_bigint_shift () =
  check_b "shl" "1024" (B.shift_left B.one 10);
  check_b "shl big" (B.to_string (B.pow B.two 100)) (B.shift_left B.one 100);
  check_b "shr" "1" (B.shift_right (B.of_int 1024) 10);
  check_b "shr to zero" "0" (B.shift_right (B.of_int 3) 10)

let test_bigint_string () =
  check_b "of_string" "123456789" (B.of_string "123456789");
  check_b "of_string neg" "-987" (B.of_string "-987");
  check_b "of_string plus" "987" (B.of_string "+987");
  check_b "of_string underscores" "1000000" (B.of_string "1_000_000");
  Alcotest.check_raises "empty" (Invalid_argument "Bigint.of_string: empty string")
    (fun () -> ignore (B.of_string ""));
  Alcotest.check_raises "junk" (Invalid_argument "Bigint.of_string: invalid character")
    (fun () -> ignore (B.of_string "12a3"))

let test_bigint_compare () =
  Alcotest.(check bool) "lt" true (B.compare (B.of_int 3) (B.of_int 5) < 0);
  Alcotest.(check bool) "neg lt pos" true (B.compare (B.of_int (-1)) B.zero < 0);
  Alcotest.(check bool) "neg order" true (B.compare (B.of_int (-5)) (B.of_int (-3)) < 0);
  Alcotest.(check bool) "equal" true (B.equal (B.of_int 7) (B.of_int 7));
  Alcotest.(check bool) "bit_length 0" true (B.bit_length B.zero = 0);
  Alcotest.(check bool) "bit_length 1" true (B.bit_length B.one = 1);
  Alcotest.(check bool) "bit_length 1024" true (B.bit_length (B.of_int 1024) = 11)

let test_bigint_to_float () =
  Alcotest.(check (float 1e-9)) "to_float" 12345.0 (B.to_float (B.of_int 12345));
  Alcotest.(check (float 1e6)) "to_float big" 1e21 (B.to_float (B.of_string "1000000000000000000000"))

(* ------------------------------------------------------------------ *)
(* Bigint properties                                                   *)
(* ------------------------------------------------------------------ *)

let arb_small_int = QCheck.int_range (-1_000_000_000) 1_000_000_000

(* Arbitrary big integers built from strings of decimal digits. *)
let arb_bigint =
  let gen =
    QCheck.Gen.(
      let* sign = oneofl [ ""; "-" ] in
      let* ndigits = int_range 1 60 in
      let* digits = list_repeat ndigits (int_range 0 9) in
      let s = sign ^ "1" ^ String.concat "" (List.map string_of_int digits) in
      return (B.of_string s))
  in
  QCheck.make ~print:B.to_string gen

let prop_int_roundtrip =
  QCheck.Test.make ~name:"bigint: of_int |> to_int roundtrips" ~count:500 QCheck.int
    (fun n -> B.to_int (B.of_int n) = Some n)

let prop_add_matches_int =
  QCheck.Test.make ~name:"bigint: add matches int add" ~count:500
    (QCheck.pair arb_small_int arb_small_int) (fun (a, b) ->
      B.equal (B.add (B.of_int a) (B.of_int b)) (B.of_int (a + b)))

let prop_mul_matches_int =
  QCheck.Test.make ~name:"bigint: mul matches int mul" ~count:500
    (QCheck.pair arb_small_int arb_small_int) (fun (a, b) ->
      B.equal (B.mul (B.of_int a) (B.of_int b)) (B.of_int (a * b)))

let prop_string_roundtrip =
  QCheck.Test.make ~name:"bigint: to_string |> of_string roundtrips" ~count:300 arb_bigint
    (fun x -> B.equal x (B.of_string (B.to_string x)))

let prop_add_comm =
  QCheck.Test.make ~name:"bigint: addition commutes" ~count:300
    (QCheck.pair arb_bigint arb_bigint) (fun (a, b) -> B.equal (B.add a b) (B.add b a))

let prop_add_assoc =
  QCheck.Test.make ~name:"bigint: addition associates" ~count:300
    (QCheck.triple arb_bigint arb_bigint arb_bigint) (fun (a, b, c) ->
      B.equal (B.add a (B.add b c)) (B.add (B.add a b) c))

let prop_mul_distributes =
  QCheck.Test.make ~name:"bigint: mul distributes over add" ~count:300
    (QCheck.triple arb_bigint arb_bigint arb_bigint) (fun (a, b, c) ->
      B.equal (B.mul a (B.add b c)) (B.add (B.mul a b) (B.mul a c)))

let prop_divmod_invariant =
  QCheck.Test.make ~name:"bigint: a = q*b + r with |r| < |b|" ~count:300
    (QCheck.pair arb_bigint arb_bigint) (fun (a, b) ->
      QCheck.assume (not (B.is_zero b));
      let q, r = B.divmod a b in
      B.equal a (B.add (B.mul q b) r)
      && B.compare (B.abs r) (B.abs b) < 0
      && (B.is_zero r || B.sign r = B.sign a))

let prop_gcd_divides =
  QCheck.Test.make ~name:"bigint: gcd divides both arguments" ~count:200
    (QCheck.pair arb_bigint arb_bigint) (fun (a, b) ->
      QCheck.assume (not (B.is_zero a) || not (B.is_zero b));
      let g = B.gcd a b in
      B.is_zero (B.rem a g) && B.is_zero (B.rem b g))

let prop_shift_left_is_mul_pow2 =
  QCheck.Test.make ~name:"bigint: shift_left k = mul by 2^k" ~count:200
    (QCheck.pair arb_bigint (QCheck.int_range 0 80)) (fun (x, k) ->
      B.equal (B.shift_left x k) (B.mul x (B.pow B.two k)))

(* Huge operands exercise the Karatsuba path (threshold = 32 limbs, i.e.
   roughly 150 decimal digits). *)
let arb_huge_bigint =
  let gen =
    QCheck.Gen.(
      let* sign = oneofl [ ""; "-" ] in
      let* ndigits = int_range 150 900 in
      let* digits = list_repeat ndigits (int_range 0 9) in
      return (B.of_string (sign ^ "1" ^ String.concat "" (List.map string_of_int digits))))
  in
  QCheck.make ~print:B.to_string gen

let prop_karatsuba_matches_schoolbook =
  QCheck.Test.make ~name:"bigint: karatsuba = schoolbook on huge operands" ~count:60
    (QCheck.pair arb_huge_bigint arb_huge_bigint) (fun (a, b) ->
      B.equal (B.mul a b) (B.mul_schoolbook a b))

let prop_karatsuba_uneven_sizes =
  QCheck.Test.make ~name:"bigint: karatsuba handles very uneven operand sizes" ~count:60
    (QCheck.pair arb_huge_bigint arb_bigint) (fun (a, b) ->
      B.equal (B.mul a b) (B.mul_schoolbook a b))

let prop_sub_antisym =
  QCheck.Test.make ~name:"bigint: a-b = -(b-a)" ~count:300
    (QCheck.pair arb_bigint arb_bigint) (fun (a, b) ->
      B.equal (B.sub a b) (B.neg (B.sub b a)))

(* ------------------------------------------------------------------ *)
(* Rat unit tests                                                      *)
(* ------------------------------------------------------------------ *)

let check_r msg expected actual = Alcotest.(check string) msg expected (R.to_string actual)

let test_rat_normalisation () =
  check_r "reduces" "1/2" (R.of_ints 2 4);
  check_r "sign in num" "-1/2" (R.of_ints 1 (-2));
  check_r "double negative" "1/2" (R.of_ints (-1) (-2));
  check_r "zero" "0" (R.of_ints 0 17);
  check_r "integer" "5" (R.of_ints 10 2);
  Alcotest.check_raises "zero den" Division_by_zero (fun () -> ignore (R.of_ints 1 0))

let test_rat_arith () =
  check_r "add" "5/6" (R.add (R.of_ints 1 2) (R.of_ints 1 3));
  check_r "sub" "1/6" (R.sub (R.of_ints 1 2) (R.of_ints 1 3));
  check_r "mul" "1/6" (R.mul (R.of_ints 1 2) (R.of_ints 1 3));
  check_r "div" "3/2" (R.div (R.of_ints 1 2) (R.of_ints 1 3));
  check_r "inv" "-3/2" (R.inv (R.of_ints (-2) 3));
  Alcotest.check_raises "inv zero" Division_by_zero (fun () -> ignore (R.inv R.zero))

let test_rat_compare () =
  Alcotest.(check bool) "1/3 < 1/2" true (R.compare (R.of_ints 1 3) (R.of_ints 1 2) < 0);
  Alcotest.(check bool) "equal" true (R.equal (R.of_ints 2 4) (R.of_ints 1 2));
  Alcotest.(check bool) "neg < pos" true (R.compare (R.of_ints (-1) 2) R.zero < 0)

let test_rat_of_float () =
  check_r "0.5" "1/2" (R.of_float 0.5);
  check_r "0.25" "1/4" (R.of_float 0.25);
  check_r "-1.5" "-3/2" (R.of_float (-1.5));
  check_r "3.0" "3" (R.of_float 3.0);
  check_r "0.0" "0" (R.of_float 0.0);
  Alcotest.(check (float 1e-15)) "roundtrip 0.1" 0.1 (R.to_float (R.of_float 0.1));
  Alcotest.check_raises "nan" (Invalid_argument "Rat.of_float: not finite") (fun () ->
      ignore (R.of_float Float.nan))

(* to_float must stay accurate when numerator and denominator individually
   overflow the float range (thousands of bits): the naive num/.den would
   yield inf/inf = nan. *)
let test_rat_to_float_huge () =
  let pow r k = R.make (B.pow (R.num r) k) (B.pow (R.den r) k) in
  let float_pow f k =
    let acc = ref 1.0 in
    for _ = 1 to k do
      acc := !acc *. f
    done;
    !acc
  in
  (* (1/3)^150 ~ 1e-72: both sides huge, value tiny but representable. *)
  let small = R.to_float (pow (R.of_ints 1 3) 150) in
  let expect = float_pow (1.0 /. 3.0) 150 in
  Alcotest.(check bool) "tiny quotient" true
    (Float.abs (small -. expect) <= 1e-12 *. expect);
  (* (10/3)^150 ~ 1e78: huge on both sides, quotient large. *)
  let big = R.to_float (pow (R.of_ints 10 3) 150) in
  let expect = float_pow (10.0 /. 3.0) 150 in
  Alcotest.(check bool) "large quotient" true
    (Float.abs (big -. expect) <= 1e-12 *. expect);
  (* Genuine overflow / underflow must saturate, not go nan. *)
  Alcotest.(check bool) "overflow is inf" true
    (R.to_float (pow (R.of_ints 10 3) 2000) = Float.infinity);
  Alcotest.(check bool) "underflow is zero" true
    (R.to_float (pow (R.of_ints 3 10) 2000) = 0.0);
  Alcotest.(check bool) "negative sign kept" true
    (R.to_float (pow (R.of_ints (-10) 3) 151) < 0.0)

let test_rat_string () =
  check_r "parse frac" "7/3" (R.of_string "7/3");
  check_r "parse int" "-4" (R.of_string "-4");
  check_r "parse unnormalised" "1/2" (R.of_string "2/4")

(* ------------------------------------------------------------------ *)
(* Rat properties                                                      *)
(* ------------------------------------------------------------------ *)

let arb_rat =
  let gen =
    QCheck.Gen.(
      let* num = int_range (-10000) 10000 in
      let* den = int_range 1 10000 in
      return (R.of_ints num den))
  in
  QCheck.make ~print:R.to_string gen

let prop_rat_field_add_inverse =
  QCheck.Test.make ~name:"rat: x + (-x) = 0" ~count:300 arb_rat (fun x ->
      R.is_zero (R.add x (R.neg x)))

let prop_rat_mul_inverse =
  QCheck.Test.make ~name:"rat: x * 1/x = 1" ~count:300 arb_rat (fun x ->
      QCheck.assume (not (R.is_zero x));
      R.equal (R.mul x (R.inv x)) R.one)

let prop_rat_add_assoc =
  QCheck.Test.make ~name:"rat: addition associates exactly" ~count:300
    (QCheck.triple arb_rat arb_rat arb_rat) (fun (a, b, c) ->
      R.equal (R.add a (R.add b c)) (R.add (R.add a b) c))

let prop_rat_distrib =
  QCheck.Test.make ~name:"rat: distributivity" ~count:300
    (QCheck.triple arb_rat arb_rat arb_rat) (fun (a, b, c) ->
      R.equal (R.mul a (R.add b c)) (R.add (R.mul a b) (R.mul a c)))

let prop_rat_compare_consistent_with_float =
  QCheck.Test.make ~name:"rat: compare agrees with float compare when far apart" ~count:300
    (QCheck.pair arb_rat arb_rat) (fun (a, b) ->
      let fa = R.to_float a and fb = R.to_float b in
      QCheck.assume (Float.abs (fa -. fb) > 1e-6);
      Stdlib.compare fa fb = R.compare a b)

let prop_rat_float_roundtrip =
  QCheck.Test.make ~name:"rat: of_float exactly roundtrips" ~count:300
    (QCheck.float_range (-1e6) 1e6) (fun f ->
      Float.equal (R.to_float (R.of_float f)) f)

(* ------------------------------------------------------------------ *)
(* Kahan and Stats                                                     *)
(* ------------------------------------------------------------------ *)

let test_kahan_basic () =
  Alcotest.(check (float 0.0)) "empty" 0.0 (Kahan.sum [||]);
  Alcotest.(check (float 1e-12)) "simple" 6.0 (Kahan.sum [| 1.0; 2.0; 3.0 |]);
  (* The classic case where naive summation loses the small terms. *)
  let xs = Array.make 10_000 0.1 in
  Alcotest.(check (float 1e-9)) "accumulated 0.1" 1000.0 (Kahan.sum xs)

let test_kahan_compensation () =
  (* 1 + 1e16 - 1e16 = 1 exactly with compensation. *)
  let acc = Kahan.create () in
  Kahan.add acc 1.0;
  Kahan.add acc 1e16;
  Kahan.add acc (-1e16);
  Alcotest.(check (float 0.0)) "catastrophic cancellation" 1.0 (Kahan.total acc);
  Kahan.reset acc;
  Alcotest.(check (float 0.0)) "reset" 0.0 (Kahan.total acc)

let test_kahan_sum_by () =
  Alcotest.(check (float 1e-12)) "sum_by" 14.0
    (Kahan.sum_by (fun x -> x *. x) [| 1.0; 2.0; 3.0 |])

let test_stats_basic () =
  let xs = [| 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 |] in
  Alcotest.(check (float 1e-12)) "mean" 5.0 (Stats.mean xs);
  Alcotest.(check (float 1e-12)) "population sd" 2.0 (Stats.population_stddev xs);
  Alcotest.(check (float 1e-12)) "median" 4.5 (Stats.median xs);
  Alcotest.(check (float 1e-12)) "min" 2.0 (Stats.min xs);
  Alcotest.(check (float 1e-12)) "max" 9.0 (Stats.max xs);
  Alcotest.(check (float 1e-12)) "q0" 2.0 (Stats.quantile 0.0 xs);
  Alcotest.(check (float 1e-12)) "q1" 9.0 (Stats.quantile 1.0 xs)

let test_stats_singleton () =
  let xs = [| 42.0 |] in
  Alcotest.(check (float 0.0)) "variance" 0.0 (Stats.variance xs);
  Alcotest.(check (float 0.0)) "ci95" 0.0 (Stats.ci95 xs);
  Alcotest.(check (float 0.0)) "median" 42.0 (Stats.median xs)

let test_stats_empty () =
  Alcotest.check_raises "mean" (Invalid_argument "Stats.mean: empty sample") (fun () ->
      ignore (Stats.mean [||]))

let test_stats_summary () =
  let s = Stats.summarize [| 1.0; 2.0; 3.0 |] in
  Alcotest.(check int) "n" 3 s.Stats.n;
  Alcotest.(check (float 1e-12)) "mean" 2.0 s.Stats.mean;
  Alcotest.(check (float 1e-12)) "stddev" 1.0 s.Stats.stddev

let prop_stats_mean_bounds =
  QCheck.Test.make ~name:"stats: min <= mean <= max" ~count:300
    QCheck.(array_of_size Gen.(int_range 1 50) (float_range (-1e3) 1e3))
    (fun xs ->
      let m = Stats.mean xs in
      Stats.min xs -. 1e-9 <= m && m <= Stats.max xs +. 1e-9)

let prop_stats_quantile_monotone =
  QCheck.Test.make ~name:"stats: quantile is monotone in q" ~count:300
    QCheck.(
      pair
        (array_of_size Gen.(int_range 1 50) (float_range (-1e3) 1e3))
        (pair (float_range 0.0 1.0) (float_range 0.0 1.0)))
    (fun (xs, (q1, q2)) ->
      let lo = Float.min q1 q2 and hi = Float.max q1 q2 in
      Stats.quantile lo xs <= Stats.quantile hi xs +. 1e-9)

(* ------------------------------------------------------------------ *)
(* Ordered_field                                                       *)
(* ------------------------------------------------------------------ *)

module Ordered_field = Mf_numeric.Ordered_field

(* Both fields still match [S]: the LP core instantiates them by textual
   inclusion, so no functor application checks that any more. *)
let _ : (module Ordered_field.S) = (module Ordered_field.Float_field)
let rat_field = (module Ordered_field.Rat_field : Ordered_field.S with type t = R.t)

let field_samples =
  [
    0.0; -0.0; infinity; neg_infinity; nan; 5e-324 (* smallest subnormal *); -2.5e-310;
    max_float; -.max_float; 1.0; -1.0; 0.1; 3.0; -7.25; 1e300; 1e-300;
  ]

let bits x = Int64.bits_of_float x

(* [Float_field]'s operations are [external] primitives, which the LP
   core inlines.  They must equal [Stdlib.Float]'s bit for bit on signed
   zeros, infinities, nan, subnormals and [max_float]. *)
let test_float_field_matches_stdlib () =
  let module F = Ordered_field.Float_field in
  let same name want got = Alcotest.(check int64) name (bits want) (bits got) in
  List.iter
    (fun x ->
      let name op = Printf.sprintf "%s %h" op x in
      same (name "neg") (Float.neg x) (F.neg x);
      same (name "abs") (Float.abs x) (F.abs x);
      same (name "of_float") x (F.of_float x);
      same (name "to_float") x (F.to_float x);
      List.iter
        (fun y ->
          let name op = Printf.sprintf "%s %h %h" op x y in
          same (name "add") (Float.add x y) (F.add x y);
          same (name "sub") (Float.sub x y) (F.sub x y);
          same (name "mul") (Float.mul x y) (F.mul x y);
          same (name "div") (Float.div x y) (F.div x y);
          Alcotest.(check int) (name "compare") (Float.compare x y) (F.compare x y);
          Alcotest.(check bool) (name "equal") (Float.equal x y) (F.equal x y))
        field_samples)
    field_samples;
  List.iter
    (fun i -> same (Printf.sprintf "of_int %d" i) (Float.of_int i) (F.of_int i))
    [ 0; 1; -1; 3; 1 lsl 53; (1 lsl 53) + 1; max_int; min_int ];
  (* Unlike IEEE [=] and [%equal], both treat nan as equal to itself. *)
  Alcotest.(check bool) "equal nan nan" true (F.equal nan nan);
  Alcotest.(check int) "compare nan nan" 0 (F.compare nan nan);
  let module Q = (val rat_field) in
  Alcotest.(check bool) "rational tolerances are exact" true
    (Q.equal Q.eps Q.zero && Q.equal Q.rel_eps Q.zero)

(* ------------------------------------------------------------------ *)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "mf_numeric"
    [
      ( "bigint",
        [
          Alcotest.test_case "of_int" `Quick test_bigint_of_int;
          Alcotest.test_case "to_int" `Quick test_bigint_to_int;
          Alcotest.test_case "add/sub" `Quick test_bigint_add_sub;
          Alcotest.test_case "mul" `Quick test_bigint_mul;
          Alcotest.test_case "divmod" `Quick test_bigint_divmod;
          Alcotest.test_case "gcd" `Quick test_bigint_gcd;
          Alcotest.test_case "pow" `Quick test_bigint_pow;
          Alcotest.test_case "shift" `Quick test_bigint_shift;
          Alcotest.test_case "strings" `Quick test_bigint_string;
          Alcotest.test_case "compare" `Quick test_bigint_compare;
          Alcotest.test_case "to_float" `Quick test_bigint_to_float;
        ] );
      qsuite "bigint-props"
        [
          prop_int_roundtrip;
          prop_add_matches_int;
          prop_mul_matches_int;
          prop_string_roundtrip;
          prop_add_comm;
          prop_add_assoc;
          prop_mul_distributes;
          prop_divmod_invariant;
          prop_gcd_divides;
          prop_shift_left_is_mul_pow2;
          prop_karatsuba_matches_schoolbook;
          prop_karatsuba_uneven_sizes;
          prop_sub_antisym;
        ];
      ( "rat",
        [
          Alcotest.test_case "normalisation" `Quick test_rat_normalisation;
          Alcotest.test_case "arithmetic" `Quick test_rat_arith;
          Alcotest.test_case "compare" `Quick test_rat_compare;
          Alcotest.test_case "of_float" `Quick test_rat_of_float;
          Alcotest.test_case "to_float huge" `Quick test_rat_to_float_huge;
          Alcotest.test_case "strings" `Quick test_rat_string;
        ] );
      qsuite "rat-props"
        [
          prop_rat_field_add_inverse;
          prop_rat_mul_inverse;
          prop_rat_add_assoc;
          prop_rat_distrib;
          prop_rat_compare_consistent_with_float;
          prop_rat_float_roundtrip;
        ];
      ( "ord-field",
        [
          Alcotest.test_case "float field matches Stdlib.Float" `Quick
            test_float_field_matches_stdlib;
        ] );
      ( "kahan",
        [
          Alcotest.test_case "basic" `Quick test_kahan_basic;
          Alcotest.test_case "compensation" `Quick test_kahan_compensation;
          Alcotest.test_case "sum_by" `Quick test_kahan_sum_by;
        ] );
      ( "stats",
        [
          Alcotest.test_case "basic" `Quick test_stats_basic;
          Alcotest.test_case "singleton" `Quick test_stats_singleton;
          Alcotest.test_case "empty" `Quick test_stats_empty;
          Alcotest.test_case "summary" `Quick test_stats_summary;
        ] );
      qsuite "stats-props" [ prop_stats_mean_bounds; prop_stats_quantile_monotone ];
    ]
