let to_string inst =
  let n = Instance.task_count inst in
  let m = Instance.machines inst in
  let wf = Instance.workflow inst in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "# micro-factory instance (see Instance_io for the format)\n";
  Printf.bprintf buf "tasks %d machines %d\n" n m;
  Buffer.add_string buf "types";
  for i = 0 to n - 1 do
    Printf.bprintf buf " %d" (Workflow.ttype wf i)
  done;
  Buffer.add_string buf "\nsuccessors";
  for i = 0 to n - 1 do
    Printf.bprintf buf " %d" (match Workflow.successor wf i with None -> -1 | Some j -> j)
  done;
  Buffer.add_char buf '\n';
  for i = 0 to n - 1 do
    Printf.bprintf buf "w %d" i;
    for u = 0 to m - 1 do
      Printf.bprintf buf " %.17g" (Instance.w inst i u)
    done;
    Buffer.add_char buf '\n'
  done;
  for i = 0 to n - 1 do
    Printf.bprintf buf "f %d" i;
    for u = 0 to m - 1 do
      Printf.bprintf buf " %.17g" (Instance.f inst i u)
    done;
    Buffer.add_char buf '\n'
  done;
  Buffer.contents buf

type error = { line : int; message : string }

let describe_error e =
  if e.line = 0 then Printf.sprintf "Instance_io: %s" e.message
  else Printf.sprintf "Instance_io: line %d: %s" e.line e.message

exception Parse_error of error

let fail line message = raise (Parse_error { line; message })

let of_string_exn text =
  let lines =
    String.split_on_char '\n' text
    |> List.mapi (fun idx l -> (idx + 1, String.trim l))
    |> List.filter (fun (_, l) -> l <> "" && l.[0] <> '#')
  in
  let words (lineno, l) = (lineno, String.split_on_char ' ' l |> List.filter (( <> ) "")) in
  let parse_int lineno s =
    match int_of_string_opt s with Some v -> v | None -> fail lineno ("bad integer " ^ s)
  in
  let parse_float lineno s =
    match float_of_string_opt s with Some v -> v | None -> fail lineno ("bad float " ^ s)
  in
  (* Peel the three header lines one at a time so a missing or mangled
     types/successors line is reported as such, not as a bad header. *)
  let demand_line what = function
    | (lineno, keyword :: ws) :: rest when keyword = what -> (lineno, ws, rest)
    | (lineno, _) :: _ -> fail lineno (Printf.sprintf "expected a '%s ...' line" what)
    | [] -> fail 0 (Printf.sprintf "missing '%s ...' line" what)
  in
  match List.map words lines with
  | (l1, [ "tasks"; n_s; "machines"; m_s ]) :: rest ->
    let l2, type_words, rest = demand_line "types" rest in
    let l3, succ_words, rest = demand_line "successors" rest in
    let n = parse_int l1 n_s and m = parse_int l1 m_s in
    if List.length type_words <> n then fail l2 "expected one type per task";
    if List.length succ_words <> n then fail l3 "expected one successor per task";
    let types = Array.of_list (List.map (parse_int l2) type_words) in
    let successor =
      Array.of_list
        (List.map
           (fun s ->
             let v = parse_int l3 s in
             if v < 0 then None else Some v)
           succ_words)
    in
    let w = Array.make_matrix n m 0.0 in
    let f = Array.make_matrix n m 0.0 in
    let seen_w = Array.make n false and seen_f = Array.make n false in
    List.iter
      (fun (lineno, ws) ->
        match ws with
        | kind :: i_s :: values when kind = "w" || kind = "f" ->
          let i = parse_int lineno i_s in
          if i < 0 || i >= n then fail lineno "task index out of range";
          if List.length values <> m then fail lineno "expected one value per machine";
          let target, seen = if kind = "w" then (w, seen_w) else (f, seen_f) in
          List.iteri (fun u s -> target.(i).(u) <- parse_float lineno s) values;
          seen.(i) <- true
        | _ -> fail lineno "expected a 'w <i> ...' or 'f <i> ...' line")
      rest;
    Array.iteri (fun i s -> if not s then fail 0 (Printf.sprintf "missing w row for task %d" i)) seen_w;
    Array.iteri (fun i s -> if not s then fail 0 (Printf.sprintf "missing f row for task %d" i)) seen_f;
    let workflow = Workflow.in_forest ~types ~successor in
    Instance.create ~workflow ~machines:m ~w ~f
  | (lineno, _) :: _ -> fail lineno "expected header 'tasks <n> machines <m>'"
  | [] -> fail 0 "empty input"

let of_string_result text =
  match of_string_exn text with
  | inst -> Ok inst
  | exception Parse_error e -> Error e
  (* The Workflow/Instance smart constructors reject semantic problems
     (successor cycles, type-inconsistent w, f outside [0, 1)) that
     line-level parsing cannot see. *)
  | exception Invalid_argument message -> Error { line = 0; message }

let of_string text =
  match of_string_result text with
  | Ok inst -> inst
  | Error e -> invalid_arg (describe_error e)

(* ---- streaming framing (the daemon wire) -------------------------- *)

(* "end" cannot collide with instance content: every body line starts
   with tasks/types/successors/w/f or '#'. *)
let end_marker = "end"
let to_framed_string inst = to_string inst ^ end_marker ^ "\n"

let read_framed next =
  let buf = Buffer.create 1024 in
  let rec loop n =
    match next () with
    | None ->
      Error
        {
          line = n;
          message =
            (if n = 0 then "empty input"
             else Printf.sprintf "input ended before the '%s' marker" end_marker);
        }
    | Some line ->
      if String.trim line = end_marker then of_string_result (Buffer.contents buf)
      else begin
        Buffer.add_string buf line;
        Buffer.add_char buf '\n';
        loop (n + 1)
      end
  in
  loop 0

let write_file path inst =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc (to_string inst))

let read_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> of_string (In_channel.input_all ic))
