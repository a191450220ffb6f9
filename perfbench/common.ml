(* Shared plumbing for the workload runs: clocks, order statistics,
   memory readings, seed-driven relabelings, failure accounting and the
   result line. *)

module Instance = Mf_core.Instance
module Workflow = Mf_core.Workflow
module Mapping = Mf_core.Mapping
module Period = Mf_core.Period
module Rng = Mf_prng.Rng

let now = Unix.gettimeofday

(* [timed f] runs [f ()] and returns its result with the elapsed seconds. *)
let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* ---- order statistics -------------------------------------------- *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Nearest-rank quantile, [q] in [0, 1]; [nan] on an empty sample. *)
let quantile q xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else a.(min (n - 1) (max 0 (int_of_float (ceil (q *. float_of_int n)) - 1)))

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else 0.5 *. (a.((n / 2) - 1) +. a.(n / 2))

let mean xs =
  match xs with [] -> nan | _ -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let sum xs = List.fold_left ( +. ) 0.0 xs

(* ---- memory ------------------------------------------------------ *)

(* Peak resident set (VmHWM) of a process, in MB; [nan] when /proc is
   unreadable. *)
let rss_peak_mb ?(pid = "self") () =
  match open_in (Printf.sprintf "/proc/%s/status" pid) with
  | exception Sys_error _ -> nan
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> nan
      | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
            float_of_int kb /. 1024.0)
      | _ -> scan ()
    in
    let r = scan () in
    close_in ic;
    r

(* ---- inputs ------------------------------------------------------ *)

(* [relabel rng inst] renames machines by a random permutation and task
   types by a random bijection.  The canonical form ({!Mf_core.Canon})
   folds both away, so the solver does the same work on every relabeling
   while the bytes it receives differ from seed to seed.  Returns the new
   instance and [perm], where new machine [perm.(u)] is old machine [u]. *)
let relabel rng inst =
  let n = Instance.task_count inst and m = Instance.machines inst in
  let p = Instance.type_count inst in
  let wf = Instance.workflow inst in
  let perm = Array.init m Fun.id in
  Rng.shuffle rng perm;
  let tperm = Array.init p Fun.id in
  Rng.shuffle rng tperm;
  let types = Array.init n (fun i -> tperm.(Workflow.ttype wf i)) in
  let workflow =
    Workflow.in_forest ~types ~successor:(Array.init n (fun i -> Workflow.successor wf i))
  in
  let col get = Array.init n (fun i ->
      let row = Array.make m 0.0 in
      for u = 0 to m - 1 do row.(perm.(u)) <- get inst i u done;
      row)
  in
  (Instance.create ~workflow ~machines:m ~w:(col Instance.w) ~f:(col Instance.f), perm)

(* Relative float agreement.  Reported periods come from the solvers'
   incremental evaluators, which may differ from a from-scratch
   {!Period.period} in the last bits. *)
let close ?(rel = 1e-9) a b = Float.abs (a -. b) <= rel *. Float.max (Float.abs a) (Float.abs b)

(* ---- failure accounting ------------------------------------------ *)

let attempted = ref 0
let failed = ref 0

(* [check ok what] counts one failed operation (and says why on stderr)
   when [ok] is false; it never aborts the run. *)
let check ok what =
  if not ok then begin
    incr failed;
    Printf.eprintf "perfbench: check failed: %s\n%!" what
  end

(* The outcome checks every solver workload applies to every answer: the
   mapping satisfies the rule, re-evaluates to the reported period, and
   the certified bound does not exceed it. *)
let check_outcome ~what (req : Mf_solve.Solver.request) (o : Mf_solve.Solver.outcome) =
  let inst = req.Mf_solve.Solver.instance in
  match (o.Mf_solve.Solver.mapping, o.Mf_solve.Solver.period) with
  | Some mp, Some p ->
    check (Mapping.satisfies inst mp req.Mf_solve.Solver.rule) (what ^ ": mapping violates its rule");
    check (close (Mf_solve.Solver.score req mp) p) (what ^ ": period does not re-evaluate");
    (match o.Mf_solve.Solver.lower_bound with
    | Some lb -> check (lb <= p) (what ^ ": bound above period")
    | None -> ())
  | _ -> check false (what ^ ": no mapping")

(* ---- results ----------------------------------------------------- *)

(* Metrics of one run, in print order: name, value, unit. *)
let metrics : (string * float * string) list ref = ref []

let report name unit value = metrics := (name, value, unit) :: !metrics

let json_float v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "null"

(* Prints every metric as a readable line, then the result object as the
   last line of standard output. *)
let print_result () =
  let ms = List.rev !metrics in
  List.iter (fun (n, v, u) -> Printf.printf "  %-34s %14.6g %s\n" n v u) ms;
  let body =
    List.map
      (fun (n, v, u) -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (json_float v) u)
      ms
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (!failed = 0) !attempted !failed (String.concat ", " body)
