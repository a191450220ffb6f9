(* Binary min-heap on (time, seq) over parallel arrays: slot [i]'s
   children are [2i + 1] and [2i + 2].  Sifts move a hole instead of
   swapping entries. *)
type t = {
  mutable times : float array;
  mutable seqs : int array;
  mutable codes : int array;
  mutable size : int;
  mutable seq : int;
}

let create () =
  { times = Array.make 16 0.0; seqs = Array.make 16 0; codes = Array.make 16 0; size = 0; seq = 0 }

let is_empty cal = cal.size = 0
let length cal = cal.size

let grow cal =
  let cap = 2 * Array.length cal.times in
  let extend a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 cal.size;
    b
  in
  cal.times <- extend cal.times 0.0;
  cal.seqs <- extend cal.seqs 0;
  cal.codes <- extend cal.codes 0

(* Slot [i]'s entry fires before slot [j]'s. *)
let[@inline] before cal i j =
  cal.times.(i) < cal.times.(j) || (cal.times.(i) = cal.times.(j) && cal.seqs.(i) < cal.seqs.(j))

(* Move slot [src]'s entry into slot [dst]. *)
let[@inline] move cal ~src ~dst =
  cal.times.(dst) <- cal.times.(src);
  cal.seqs.(dst) <- cal.seqs.(src);
  cal.codes.(dst) <- cal.codes.(src)

let schedule cal ~time code =
  if Float.is_nan time || time < 0.0 then invalid_arg "Calendar.schedule: bad time";
  if cal.size = Array.length cal.times then grow cal;
  let seq = cal.seq in
  cal.seq <- seq + 1;
  (* Sequence numbers only grow, so the new entry is later than every
     parent with an equal time. *)
  let i = ref cal.size in
  cal.size <- cal.size + 1;
  while !i > 0 && time < cal.times.((!i - 1) / 2) do
    let parent = (!i - 1) / 2 in
    move cal ~src:parent ~dst:!i;
    i := parent
  done;
  cal.times.(!i) <- time;
  cal.seqs.(!i) <- seq;
  cal.codes.(!i) <- code

let min_time cal =
  if cal.size = 0 then invalid_arg "Calendar.min_time: empty calendar";
  cal.times.(0)

let pop cal =
  if cal.size = 0 then invalid_arg "Calendar.pop: empty calendar";
  let code = cal.codes.(0) in
  let last = cal.size - 1 in
  cal.size <- last;
  if last > 0 then begin
    (* Sift the last entry down from the root. *)
    let i = ref 0 and sifting = ref true in
    while !sifting do
      let l = (2 * !i) + 1 in
      let c = if l + 1 < last && before cal (l + 1) l then l + 1 else l in
      if c < last && before cal c last then begin
        move cal ~src:c ~dst:!i;
        i := c
      end
      else sifting := false
    done;
    move cal ~src:last ~dst:!i
  end;
  code

let next cal =
  if cal.size = 0 then None
  else
    let time = cal.times.(0) in
    Some (time, pop cal)
