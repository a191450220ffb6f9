(* The 256-bit state is a 32-byte buffer holding the words s0..s3 at
   offsets 0, 8, 16 and 24, read and written through the compiler's
   64-bit bytes primitives.  Primitives are expanded at every use, also
   across dune's -opaque, and they load and store unboxed int64s, so
   [next] allocates only the box of its result; a mutable int64 field
   would box every value written to it. *)
type t = Bytes.t

external get : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let of_words s0 s1 s2 s3 =
  let t = Bytes.create 32 in
  set t 0 s0;
  set t 8 s1;
  set t 16 s2;
  set t 24 s3;
  t

let create seed =
  let sm = Splitmix64.create seed in
  let s0 = Splitmix64.next sm in
  let s1 = Splitmix64.next sm in
  let s2 = Splitmix64.next sm in
  let s3 = Splitmix64.next sm in
  (* SplitMix64 outputs are never all zero for any seed, but be defensive. *)
  if s0 = 0L && s1 = 0L && s2 = 0L && s3 = 0L then of_words 1L s1 s2 s3
  else of_words s0 s1 s2 s3

let copy = Bytes.copy

let[@inline] rotl x k = Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

let next t =
  let open Int64 in
  let s0 = get t 0 and s1 = get t 8 and s2 = get t 16 and s3 = get t 24 in
  let result = mul (rotl (mul s1 5L) 7) 9L in
  let tmp = shift_left s1 17 in
  let s2 = logxor s2 s0 in
  let s3 = logxor s3 s1 in
  let s1 = logxor s1 s2 in
  let s0 = logxor s0 s3 in
  set t 0 s0;
  set t 8 s1;
  set t 16 (logxor s2 tmp);
  set t 24 (rotl s3 45);
  result

let jump_table = [| 0x180EC6D33CFD0ABAL; 0xD5A61266F0C9392CL; 0xA9582618E03FC9AAL; 0x39ABDC4529B1661CL |]

let jump t =
  let acc = Bytes.make 32 '\000' in
  Array.iter
    (fun jump_word ->
      for b = 0 to 63 do
        if Int64.logand jump_word (Int64.shift_left 1L b) <> 0L then
          for k = 0 to 3 do
            set acc (8 * k) (Int64.logxor (get acc (8 * k)) (get t (8 * k)))
          done;
        ignore (next t)
      done)
    jump_table;
  Bytes.blit acc 0 t 0 32

let split t =
  let fresh = copy t in
  jump fresh;
  (* Advance the parent past the child's stream as well. *)
  let advanced = copy fresh in
  jump advanced;
  Bytes.blit advanced 0 t 0 32;
  fresh
