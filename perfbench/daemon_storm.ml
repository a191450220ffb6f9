(* daemon-storm: an open-loop request storm against a separate [mfoptd]
   process ([--workers 2 --jobs 1]), fed over two Unix-socket
   connections by one select-driven generator at a fixed rate.

   Mix (drawn per request from the seed):
   - near-duplicates: one of eight fixed small chains (n=10, p=3, m=5)
     under a fresh machine and type relabeling — canonical-cache hits;
   - about 10% fresh requests — the solve path: one of eight other
     chains of that family with every processing time scaled by its own
     factor a hair above 1 (see [scaled]), under a fresh relabeling;
   - about 1% fresh solves followed at once by a CANCEL of their id, and
     about 1% malformed instance blocks;
   - about 30% of all solves under [Deadline_ms 20], the rest under
     [Nodes 50000].

   Latency is timed from each request's due time, so a stalled daemon
   charges its wait to every request queued behind it.  The latency
   metrics take, for each of the eight base chains (hits) and of the
   eight fresh chains (misses), its fastest answer, and report the median
   over the eight: each chain is answered about a hundred times or more
   in a run, so its fastest answer is steady on a shared host, while a
   median over all requests follows the other tenants' load.  The traced run
   replays the same request bytes in process through Protocol, Canon,
   Cache and Portfolio with timing wrappers; the wire p50 minus the
   in-process p50 of the same class is the server's own overhead (queue
   wait, thread hand-off, socket I/O). *)

open Common
module Solver = Mf_solve.Solver
module Portfolio = Mf_solve.Portfolio
module Cache = Mf_solve.Cache
module Canon = Mf_core.Canon
module Protocol = Mf_daemon.Protocol
module Instance_io = Mf_core.Instance_io
module Gen = Mf_workload.Gen

let rate = 400.0
let slo_s = 0.020
let n_bases = 8
let base b = Gen.chain (Rng.create (2000 + b)) (Gen.default ~tasks:10 ~types:3 ~machines:5)
let fresh_params = Gen.default ~tasks:10 ~types:3 ~machines:5
let n_families = 8
let family j = Gen.chain (Rng.create (3000 + j)) fresh_params

(* [scaled inst c] multiplies every processing time by [c].  With [c]
   within 1e-7 of 1 the cache key (exact %.17g digits) changes while the
   search makes the same decisions, so each fresh request of one family
   repeats the same solve under a key the cache has not seen. *)
let scaled inst c =
  let n = Instance.task_count inst and m = Instance.machines inst in
  let mat get = Array.init n (fun i -> Array.init m (fun u -> get inst i u)) in
  Instance.create ~workflow:(Instance.workflow inst) ~machines:m
    ~w:(Array.map (Array.map (fun x -> c *. x)) (mat Instance.w))
    ~f:(mat Instance.f)
let budgets = [ Solver.Nodes 50_000; Solver.Deadline_ms 20.0 ]

type kind = Hit | Fresh | Cancelled_fresh | Malformed

type op = {
  id : string;
  kind : kind;
  item : int;  (** the base a [Hit] op relabels or the fresh chain a [Fresh] op scales; else -1 *)
  req : Solver.request option;
  solve_text : string;  (** the SOLVE verb line and its instance block *)
  conn : int;
  due : float;  (** seconds after its segment starts *)
  mutable due_at : float;  (** when it was due, set as its segment starts *)
  mutable answer : (string * float) option;  (** SOLVE response line, receive time *)
  mutable cancel_answer : (string * float) option;  (** CANCEL response, for [Cancelled_fresh] *)
}

let malformed_block = "tasks 10 machines 5\ntypes 0 1 x\nend\n"

(* The storm runs in [segments] equal parts; between two parts the
   benchmark repeats the set-up on a spare daemon, so that the set-up median
   spans the run. *)
let segments = 8
let segment_length ops = (ops + segments - 1) / segments

let make_ops ~seed ~seconds =
  let rng = Rng.create seed in
  let bases = Array.init n_bases base and families = Array.init n_families family in
  let count = int_of_float (rate *. float_of_int seconds) in
  let per_segment = segment_length count in
  Array.init count (fun i ->
      let id = Printf.sprintf "s%d" i in
      let u = Rng.float rng 1.0 in
      let budget = if Rng.float rng 1.0 < 0.3 then List.nth budgets 1 else List.hd budgets in
      let fresh () = Gen.chain (Rng.split rng) fresh_params in
      let kind, item, inst =
        if u < 0.01 then (Malformed, -1, None)
        else if u < 0.02 then (Cancelled_fresh, -1, Some (fresh ()))
        else if u < 0.12 then begin
          let j = Rng.int rng n_families in
          let c = 1.0 +. (float_of_int (i + 1) *. 0x1p-40) in
          (Fresh, j, Some (fst (relabel rng (scaled families.(j) c))))
        end
        else begin
          let b = Rng.int rng n_bases in
          (Hit, b, Some (fst (relabel rng bases.(b))))
        end
      in
      let req = Option.map (fun inst -> Solver.request_exn ~budget inst) inst in
      let solve_text =
        match req with
        | Some req -> Protocol.render_solve ~id req
        | None -> Printf.sprintf "SOLVE %s\n%s" id malformed_block
      in
      {
        id;
        kind;
        item;
        req;
        solve_text;
        conn = i mod 2;
        due = float_of_int (i mod per_segment) /. rate;
        due_at = nan;
        answer = None;
        cancel_answer = None;
      })

let wire_text op =
  match op.kind with
  | Cancelled_fresh -> op.solve_text ^ Printf.sprintf "CANCEL %s\n" op.id
  | Hit | Fresh | Malformed -> op.solve_text

(* The requests that fill the cache before timing: every base under
   every budget. *)
let warm_requests () =
  List.concat_map
    (fun b -> List.map (fun budget -> Solver.request_exn ~budget (base b)) budgets)
    (List.init n_bases Fun.id)

(* ---- the daemon and its connections ------------------------------- *)

type daemon = { pid : int; fds : Unix.file_descr array; socket : string }

let live_daemons : int list ref = ref []

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live_daemons)

let connect path =
  let rec go tries =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) when tries > 0 ->
      Unix.close fd;
      Unix.sleepf 0.005;
      go (tries - 1)
  in
  go 2000

let start_daemon ~mfoptd ~run_dir k =
  let socket = Filename.concat run_dir (Printf.sprintf "storm-%d-%d.sock" (Unix.getpid ()) k) in
  (try Sys.remove socket with Sys_error _ -> ());
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Unix.create_process mfoptd
      [| mfoptd; "--socket"; socket; "--workers"; "2"; "--jobs"; "1" |]
      devnull devnull devnull
  in
  Unix.close devnull;
  live_daemons := pid :: !live_daemons;
  { pid; fds = Array.init 2 (fun _ -> connect socket); socket }

let stop_daemon d =
  Array.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) d.fds;
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  ignore (Unix.waitpid [] d.pid);
  live_daemons := List.filter (( <> ) d.pid) !live_daemons;
  try Sys.remove d.socket with Sys_error _ -> ()

(* Blocking request/response on one connection (warm-up and STATS). *)
let roundtrip fd text =
  let _ = Unix.write_substring fd text 0 (String.length text) in
  let buf = Buffer.create 256 and b = Bytes.create 1 in
  let rec line () =
    match Unix.read fd b 0 1 with
    | 0 -> failwith "daemon closed the connection"
    | _ when Bytes.get b 0 = '\n' -> Buffer.contents buf
    | _ ->
      Buffer.add_bytes buf b;
      line ()
  in
  line ()

(* ---- the open-loop generator ------------------------------------- *)

(* Sends every op of one segment at its due time and collects the
   responses; returns the segment wall (first due to last response) and
   the generator's worst lateness. *)
let storm d ops =
  let n = Array.length ops in
  let by_id = Hashtbl.create n in
  Array.iter (fun op -> Hashtbl.replace by_id op.id op) ops;
  let expected =
    Array.fold_left (fun acc op -> acc + if op.kind = Cancelled_fresh then 2 else 1) 0 ops
  in
  Array.iter Unix.set_nonblock d.fds;
  let out = Array.init 2 (fun _ -> Queue.create ()) and off = Array.make 2 0 in
  let inbuf = Array.init 2 (fun _ -> Buffer.create 65536) in
  let chunk = Bytes.create 65536 in
  let received = ref 0 and next = ref 0 and late = ref 0.0 and eof = ref false in
  let t0 = now () +. 0.01 in
  Array.iter (fun op -> op.due_at <- t0 +. op.due) ops;
  let give_up = t0 +. (float_of_int n /. rate) +. 60.0 in
  let on_line t line =
    incr received;
    match String.split_on_char ' ' line with
    | ("CANCELOK" :: id :: _ | "ERR" :: id :: "unknown-id" :: _) -> (
      match Hashtbl.find_opt by_id id with
      | Some op -> op.cancel_answer <- Some (line, t)
      | None -> check false ("response for unknown id: " ^ line))
    | ("OK" | "CANCELLED" | "ERR") :: id :: _ -> (
      match Hashtbl.find_opt by_id id with
      | Some op -> op.answer <- Some (line, t)
      | None -> check false ("response for unknown id: " ^ line))
    | _ -> check false ("unparsable response: " ^ line)
  in
  let drain_lines c t =
    let s = Buffer.contents inbuf.(c) in
    let rec go start =
      match String.index_from_opt s start '\n' with
      | Some i ->
        on_line t (String.sub s start (i - start));
        go (i + 1)
      | None ->
        Buffer.clear inbuf.(c);
        Buffer.add_string inbuf.(c) (String.sub s start (String.length s - start))
    in
    go 0
  in
  let write c =
    let s = Queue.peek out.(c) in
    match Unix.write_substring d.fds.(c) s off.(c) (String.length s - off.(c)) with
    | k ->
      off.(c) <- off.(c) + k;
      if off.(c) = String.length s then begin
        ignore (Queue.pop out.(c));
        off.(c) <- 0
      end
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  in
  let read c =
    match Unix.read d.fds.(c) chunk 0 (Bytes.length chunk) with
    | 0 -> eof := true
    | k ->
      Buffer.add_subbytes inbuf.(c) chunk 0 k;
      drain_lines c (now ())
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  in
  while (!next < n || !received < expected) && (not !eof) && now () < give_up do
    let t = now () in
    while !next < n && t0 +. ops.(!next).due <= t do
      let op = ops.(!next) in
      late := Float.max !late (t -. (t0 +. op.due));
      Queue.push (wire_text op) out.(op.conn);
      incr next
    done;
    let timeout =
      if !next < n then Float.max 0.0 (t0 +. ops.(!next).due -. now ()) else 0.05
    in
    let writers = List.filter (fun c -> not (Queue.is_empty out.(c))) [ 0; 1 ] in
    match
      Unix.select (Array.to_list d.fds) (List.map (fun c -> d.fds.(c)) writers) [] timeout
    with
    | r, w, _ ->
      List.iteri (fun c fd -> if List.mem fd w then write c) (Array.to_list d.fds);
      List.iteri (fun c fd -> if List.mem fd r then read c) (Array.to_list d.fds)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  Array.iter Unix.clear_nonblock d.fds;
  let last =
    Array.fold_left
      (fun acc op ->
        let t = match op.answer with Some (_, t) -> t | None -> acc in
        match op.cancel_answer with Some (_, t') -> Float.max t t' | None -> Float.max acc t)
      t0 ops
  in
  (last -. t0, !late)

(* ---- response checks --------------------------------------------- *)

let field line key =
  List.find_map
    (fun kv ->
      match String.index_opt kv '=' with
      | Some i when String.sub kv 0 i = key -> Some (String.sub kv (i + 1) (String.length kv - i - 1))
      | _ -> None)
    (String.split_on_char ' ' line)

let cached line = field line "cached" = Some "1"

(* Mapping rule, period re-evaluation and bound of one OK line. *)
let ok_line_valid (req : Solver.request) line =
  let inst = req.Solver.instance in
  match (field line "mapping", field line "period") with
  | Some ms, Some ps when ms <> "-" && ps <> "-" -> (
    match
      Mapping.of_array inst (Array.of_list (List.map int_of_string (String.split_on_char ',' ms)))
    with
    | exception _ -> false
    | mp ->
      let p = float_of_string ps in
      Mapping.satisfies inst mp req.Solver.rule
      && close (Solver.score req mp) p
      && (match field line "bound" with
         | Some "-" | None -> true
         | Some b -> float_of_string b <= p))
  | _ -> false

let starts line prefix =
  String.length line >= String.length prefix && String.sub line 0 (String.length prefix) = prefix

(* Whether the op got a correct structured answer. *)
let op_correct op =
  let solve_ok =
    match (op.kind, op.answer, op.req) with
    | Malformed, Some (l, _), _ -> starts l (Printf.sprintf "ERR %s bad-instance " op.id)
    | (Hit | Fresh), Some (l, _), Some req -> starts l ("OK " ^ op.id ^ " ") && ok_line_valid req l
    | Cancelled_fresh, Some (l, _), Some req ->
      l = "CANCELLED " ^ op.id || (starts l ("OK " ^ op.id ^ " ") && ok_line_valid req l)
    | _ -> false
  in
  let cancel_ok =
    match (op.kind, op.cancel_answer) with
    | Cancelled_fresh, Some (l, _) ->
      l = "CANCELOK " ^ op.id || starts l (Printf.sprintf "ERR %s unknown-id " op.id)
    | Cancelled_fresh, None -> false
    | _ -> true
  in
  solve_ok && cancel_ok

let stat line key = match field line key with Some v -> float_of_string v | None -> nan

(* ---- in-process replay -------------------------------------------- *)

let lines_of text = String.split_on_char '\n' text |> List.filter (( <> ) "")

let feeder lines =
  let rest = ref lines in
  fun () ->
    match !rest with
    | [] -> None
    | l :: tl ->
      rest := tl;
      Some l

(* The hit path of [Portfolio.solve ~cache]: the canonical entry mapped
   back to the caller's machine frame. *)
let outcome_of_entry (req : Solver.request) canon (e : Cache.entry) : Solver.outcome =
  {
    Solver.status = e.Cache.status;
    period = e.Cache.period;
    mapping =
      Option.map
        (fun alloc -> Mapping.of_array req.Solver.instance (Canon.map_from_canon canon alloc))
        e.Cache.alloc;
    lower_bound = e.Cache.lower_bound;
    engines = e.Cache.engines;
    stats = { e.Cache.stats with Solver.cache_hit = true };
  }

(* Replays the SOLVE bytes of every op: parse, solve over a private
   cache (warmed like the daemon's), render.  With [traced] each layer
   is timed separately.  Returns per-op (rendered line, seconds). *)
let replay ~traced ops =
  let cache = Cache.create () in
  List.iter (fun req -> ignore (Portfolio.solve ~cache req)) (warm_requests ());
  let span name f = if traced then Layers.span name f else f () in
  Array.map
    (fun op ->
      let t0 = now () in
      let line =
        span "protocol.parse" (fun () ->
            match lines_of op.solve_text with
            | verb :: block -> (
              match Protocol.parse_command verb with
              | Ok (Protocol.Solve h) -> (
                match Instance_io.read_framed (feeder block) with
                | Ok inst -> Ok (h, inst)
                | Error e ->
                  Error
                    (Protocol.render_error ~id:h.Protocol.h_id ~code:"bad-instance"
                       (Instance_io.describe_error e)))
              | _ -> Error "unexpected verb")
            | [] -> Error "empty request")
        |> function
        | Error l -> l
        | Ok (h, inst) -> (
          match Protocol.to_request h inst with
          | Error _ -> "bad request"
          | Ok req ->
            let o =
              if not traced then Portfolio.solve ~cache req
              else begin
                let canon = Layers.span "canon" (fun () -> Canon.canonicalize inst) in
                let key = Layers.span "cache.key" (fun () -> Cache.request_key canon req) in
                match Layers.span "cache.find" (fun () -> Cache.find cache key) with
                | Some e -> outcome_of_entry req canon e
                | None -> Layers.span "portfolio.miss" (fun () -> Portfolio.solve ~cache req)
              end
            in
            span "protocol.render" (fun () -> Protocol.render_outcome ~id:op.id o))
      in
      (line, now () -. t0))
    ops

(* ---- the run ------------------------------------------------------ *)

let run ~mfoptd ~run_dir ~seed ~seconds ~trace =
  let setups = ref [] in
  let set_up k =
    let t0 = now () in
    let ops = make_ops ~seed ~seconds in
    let d = start_daemon ~mfoptd ~run_dir k in
    List.iteri
      (fun i req ->
        let id = Printf.sprintf "w%d" i in
        let line = roundtrip d.fds.(i mod 2) (Protocol.render_solve ~id req) in
        check (starts line "OK ") ("warm-up: " ^ line))
      (warm_requests ());
    setups := (now () -. t0) :: !setups;
    (ops, d)
  in
  let spare k = stop_daemon (snd (set_up k)) in
  let ops, d = set_up 0 in
  let stats0 = roundtrip d.fds.(0) "STATS\n" in
  let per_segment = segment_length (Array.length ops) in
  let wall = ref 0.0 and late = ref 0.0 in
  for k = 0 to segments - 1 do
    let first = k * per_segment in
    let len = min per_segment (Array.length ops - first) in
    let w, l = storm d (Array.sub ops first len) in
    wall := !wall +. w;
    late := Float.max !late l;
    if k < segments - 1 then spare (k + 1)
  done;
  let wall = !wall and late = !late in
  let stats1 = roundtrip d.fds.(0) "STATS\n" in
  let daemon_rss = rss_peak_mb ~pid:(string_of_int d.pid) () in
  stop_daemon d;
  spare segments;
  (* Per-op accounting: an unanswered or wrong op fails and misses the
     SLO; a cancelled pair counts as two ops (the SOLVE and the CANCEL). *)
  let lats = ref [] and hit_lats = ref [] and miss_lats = ref [] in
  let hit_best = Array.make n_bases infinity and miss_best = Array.make n_families infinity in
  let ratios = ref [] and in_slo = ref 0 and n_ops = ref 0 in
  Array.iter
    (fun op ->
      let correct = op_correct op in
      let k = if op.kind = Cancelled_fresh then 2 else 1 in
      n_ops := !n_ops + k;
      attempted := !attempted + k;
      if not correct then begin
        failed := !failed + k;
        Printf.eprintf "perfbench: %s: wrong or missing answer (%s)\n%!" op.id
          (match op.answer with Some (l, _) -> l | None -> "none")
      end;
      let record (_, t) =
        let x = t -. op.due_at in
        lats := x :: !lats;
        if correct && x <= slo_s then incr in_slo
      in
      Option.iter record op.answer;
      Option.iter record op.cancel_answer;
      match op.answer with
      | Some (l, t) when starts l "OK " -> (
        let x = t -. op.due_at in
        if cached l then hit_lats := x :: !hit_lats else miss_lats := x :: !miss_lats;
        (match (op.kind, cached l) with
        | Hit, true -> hit_best.(op.item) <- Float.min hit_best.(op.item) x
        | Fresh, false -> miss_best.(op.item) <- Float.min miss_best.(op.item) x
        | _ -> ());
        match (field l "period", field l "bound") with
        | Some p, Some b when p <> "-" && b <> "-" ->
          ratios := (float_of_string p /. float_of_string b) :: !ratios
        | _ -> ())
      | _ -> ())
    ops;
  let delta key = stat stats1 key -. stat stats0 key in
  Printf.printf "  storm: %d requests at %.0f/s over 2 connections, %d ops, generator late \
                 max %.3f ms\n"
    (Array.length ops) rate !n_ops (1000.0 *. late);
  Printf.printf "  daemon: ok %.0f, errors %.0f, cancelled %.0f, cache hits %.0f misses %.0f\n"
    (delta "ok") (delta "errors") (delta "cancelled") (delta "hits") (delta "misses");
  (* Latency is timed from due times, so a late generator still charges
     its delay; but a generator behind by more than the SLO no longer
     offered the stated rate, and the run says so. *)
  let on_schedule = late <= slo_s in
  if not on_schedule then
    Printf.printf "  FLAGGED: the generator fell %.1f ms behind schedule (SLO %.0f ms)\n"
      (1000.0 *. late) (1000.0 *. slo_s);
  let ms xs = 1000.0 *. median xs in
  if not trace then begin
    (* Sample of OK lines against the in-process render of the same
       request, modulo the cached flag. *)
    Array.iteri
      (fun i op ->
        match (op.kind, op.answer, op.req) with
        | (Hit | Fresh), Some (l, _), Some req when i mod 25 = 0 && starts l "OK " ->
          let mine = Protocol.render_outcome ~id:op.id (Portfolio.solve req) in
          check (Protocol.mask_cached l = mine) ("in-process render differs: " ^ op.id)
        | _ -> ())
      ops;
    report "setup_s" "s" (median !setups);
    report "wall_s" "s" wall;
    report "rss_peak_mb" "MB" daemon_rss;
    let fastest best = ms (List.filter Float.is_finite (Array.to_list best)) in
    report "p50_ms" "ms" (fastest hit_best);
    report "miss_p50_ms" "ms" (fastest miss_best);
    report "overrun_ratio" "ratio" 1.0;
    report "overrun_p50" "ratio" 1.0;
    report "period_over_bound" "ratio" (mean !ratios);
    report "slo_frac" "frac" (float_of_int !in_slo /. float_of_int !n_ops);
    report "recovery" "frac" 1.0;
    Printf.printf
      "  (diagnostic: over %d responses p50 %.3f ms, p99 %.3f ms; p50 over %d hits %.3f ms, \
       over %d misses %.3f ms)\n"
      (List.length !lats) (ms !lats) (1000.0 *. quantile 0.99 !lats) (List.length !hit_lats)
      (ms !hit_lats) (List.length !miss_lats) (ms !miss_lats)
  end
  else begin
    (* the traced replay between two untraced reference replays *)
    let untraced, w1 = timed (fun () -> replay ~traced:false ops) in
    let traced, traced_wall = timed (fun () -> replay ~traced:true ops) in
    let _, w2 = timed (fun () -> replay ~traced:false ops) in
    let untraced_wall = 0.5 *. (w1 +. w2) in
    (* Every replayed line must equal the wire line modulo the cached
       flag (cancelled solves have no line to compare). *)
    let consistent = ref true in
    Array.iteri
      (fun i op ->
        match op.answer with
        | Some (l, _) when not (starts l "CANCELLED ") ->
          let a = fst untraced.(i) and b = fst traced.(i) in
          if Protocol.mask_cached l <> Protocol.mask_cached a || a <> b then begin
            consistent := false;
            Printf.eprintf "perfbench: replay of %s differs\n%!" op.id
          end
        | _ -> ())
      ops;
    let inproc cls =
      List.filter_map
        (fun (op, (_, t)) ->
          match op.answer with
          | Some (l, _) when starts l "OK " && cached l = cls -> Some t
          | _ -> None)
        (List.combine (Array.to_list ops) (Array.to_list untraced))
    in
    let wire_hit = ms !hit_lats and wire_miss = ms !miss_lats in
    let inproc_hit = ms (inproc true) and inproc_miss = ms (inproc false) in
    Layers.add "server.wire_hit_p50_ms" wire_hit;
    Layers.add "server.wire_miss_p50_ms" wire_miss;
    Layers.add "server.inproc_hit_p50_ms" inproc_hit;
    Layers.add "server.inproc_miss_p50_ms" inproc_miss;
    Layers.add "server.overhead_hit_p50_ms" (wire_hit -. inproc_hit);
    Layers.add "server.overhead_miss_p50_ms" (wire_miss -. inproc_miss);
    Layers.add "storm.p99_ms" (1000.0 *. quantile 0.99 !lats);
    Layers.add "storm.gen_late_max_ms" (1000.0 *. late);
    Layers.add "responses.ok" (delta "ok");
    Layers.add "responses.err" (delta "errors");
    Layers.add "responses.cancelled" (delta "cancelled");
    Layers.add "cache.hit_rate" (delta "hits" /. (delta "hits" +. delta "misses"));
    Layers.add "cache.evictions" (delta "evictions");
    Layers.add "trace.consistent" (if !consistent then 1.0 else 0.0);
    Layers.add "trace.flagged" (if on_schedule then 0.0 else 1.0);
    Layers.add "trace.wall.s" traced_wall;
    Layers.add "trace.untraced_wall.s" untraced_wall
  end
