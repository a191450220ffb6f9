(* Neumaier's variant of Kahan summation: also accurate when the increment
   is larger in magnitude than the running sum. *)

type t = { mutable sum : float; mutable comp : float }

let create () = { sum = 0.0; comp = 0.0 }

let[@inline] add acc x =
  let t = acc.sum +. x in
  if Float.abs acc.sum >= Float.abs x then
    acc.comp <- acc.comp +. ((acc.sum -. t) +. x)
  else acc.comp <- acc.comp +. ((x -. t) +. acc.sum);
  acc.sum <- t

let[@inline] total acc = acc.sum +. acc.comp

let reset acc =
  acc.sum <- 0.0;
  acc.comp <- 0.0

let sum xs =
  let acc = create () in
  Array.iter (add acc) xs;
  total acc

let sum_by f xs =
  let acc = create () in
  Array.iter (fun x -> add acc (f x)) xs;
  total acc
