module Solver = Mf_solve.Solver
module Portfolio = Mf_solve.Portfolio
module Cache = Mf_solve.Cache
module Pool = Mf_parallel.Pool

(* ---- configuration ------------------------------------------------ *)

type config = { jobs : int; cache_capacity : int; workers : int }

let default_config = { jobs = 1; cache_capacity = Cache.default_capacity; workers = 4 }

(* After this many consecutive deadline-ordered admissions, the oldest
   [Unlimited] request is admitted even when bounded work is waiting —
   the starvation bound of the EDF scheduler. *)
let starvation_bound = 4

(* ---- clients and jobs --------------------------------------------- *)

type client = {
  ic : in_channel;
  oc : out_channel;
  wlock : Mutex.t;  (* one response line at a time *)
  jlock : Mutex.t;  (* guards [jobs] and [pending] *)
  drained : Condition.t;
  active : (string, Pool.token) Hashtbl.t;
  mutable pending : int;
}

type job = {
  j_id : string;
  j_req : Solver.request;
  j_deadline : float;  (* effective deadline in ms; infinity = Unlimited *)
  j_seq : int;
  j_cancel : Pool.token;
  j_client : client;
}

type t = {
  config : config;
  cache : Cache.t;
  pool : Pool.t option;
  telemetry : Telemetry.t;
  qlock : Mutex.t;
  qcond : Condition.t;
  mutable queue : job list;
  mutable seq : int;
  mutable bounded_streak : int;
  stop : bool Atomic.t;
  mutable workers : Thread.t list;
}

(* The EDF key is the arrival-adjusted absolute deadline, not the
   budget magnitude: a bounded job that has waited gains priority over
   fresher arrivals with shorter budgets, so a steady stream of
   short-deadline requests cannot starve it.  [Unlimited] stays at
   infinity and is protected by [starvation_bound] instead. *)
let effective_deadline_ms ~arrival_ms = function
  | Solver.Deadline_ms d -> arrival_ms +. d
  | Solver.Nodes k -> arrival_ms +. (float_of_int k /. Solver.nodes_per_ms)
  | Solver.Unlimited -> infinity

(* A dead client (closed socket) must not take a worker down; the
   response is simply lost with the connection. *)
let respond client line =
  Mutex.protect client.wlock (fun () ->
      try
        output_string client.oc line;
        output_char client.oc '\n';
        flush client.oc
      with Sys_error _ -> ())

(* ---- EDF scheduler ------------------------------------------------ *)

let earlier a b = a.j_deadline < b.j_deadline || (a.j_deadline = b.j_deadline && a.j_seq < b.j_seq)

(* Pop under [qlock]: earliest effective deadline first, sequence
   number as the tie-break, except that after [starvation_bound]
   consecutive bounded admissions the oldest [Unlimited] job goes
   first. *)
let pop_job t =
  let best sel = function
    | [] -> None
    | j :: rest -> Some (List.fold_left (fun a b -> if sel a b then a else b) j rest)
  in
  let bounded, unlimited = List.partition (fun j -> j.j_deadline < infinity) t.queue in
  let pick =
    match (best earlier bounded, best (fun a b -> a.j_seq < b.j_seq) unlimited) with
    | Some b, Some u -> if t.bounded_streak >= starvation_bound then u else b
    | Some b, None -> b
    | None, Some u -> u
    | None, None -> assert false
  in
  t.bounded_streak <- (if pick.j_deadline < infinity then t.bounded_streak + 1 else 0);
  t.queue <- List.filter (fun j -> j != pick) t.queue;
  pick

let finish_job j =
  Mutex.protect j.j_client.jlock (fun () ->
      Hashtbl.remove j.j_client.active j.j_id;
      j.j_client.pending <- j.j_client.pending - 1;
      Condition.broadcast j.j_client.drained)

let engine_label (o : Solver.outcome) =
  if o.Solver.stats.Solver.cache_hit then "cached"
  else
    match List.rev o.Solver.engines with
    | e :: _ -> Solver.engine_name e
    | [] -> "none"

(* Runs [solve] and writes the request's one response with its
   telemetry.  [solve] returning [None] (a reader's cache probe that
   missed) writes nothing and returns [false]. *)
let answer t c ~id solve =
  let t0 = Unix.gettimeofday () in
  match solve () with
  | None -> false
  | Some outcome ->
    let elapsed_us = int_of_float ((Unix.gettimeofday () -. t0) *. 1e6) in
    Telemetry.record_ok t.telemetry ~engine:(engine_label outcome) ~elapsed_us;
    respond c (Protocol.render_outcome ~id outcome);
    true
  | exception Pool.Cancelled ->
    Telemetry.record_cancelled t.telemetry;
    respond c (Protocol.render_cancelled ~id);
    true
  | exception exn ->
    (* the daemon never crashes on a request: whatever escaped the
       portfolio becomes a structured error on this one request *)
    Telemetry.record_error t.telemetry;
    respond c (Protocol.render_error ~id ~code:"internal" (Printexc.to_string exn));
    true

let run_job t j =
  let c = j.j_client in
  (if Pool.cancelled j.j_cancel then begin
     Telemetry.record_cancelled t.telemetry;
     respond c (Protocol.render_cancelled ~id:j.j_id)
   end
   else
     let solve () =
       Some (Portfolio.solve ~cache:t.cache ?pool:t.pool ~cancel:j.j_cancel j.j_req)
     in
     ignore (answer t c ~id:j.j_id solve : bool));
  finish_job j

let rec worker_loop t =
  Mutex.lock t.qlock;
  while t.queue = [] && not (Atomic.get t.stop) do
    Condition.wait t.qcond t.qlock
  done;
  if t.queue = [] then Mutex.unlock t.qlock (* stopping *)
  else begin
    let j = pop_job t in
    Mutex.unlock t.qlock;
    run_job t j;
    worker_loop t
  end

let create ?(config = default_config) () =
  let t =
    {
      config;
      cache = Cache.create ~capacity:config.cache_capacity ();
      pool = (if config.jobs > 1 then Some (Pool.shared ~domains:config.jobs) else None);
      telemetry = Telemetry.create ();
      qlock = Mutex.create ();
      qcond = Condition.create ();
      queue = [];
      seq = 0;
      bounded_streak = 0;
      stop = Atomic.make false;
      workers = [];
    }
  in
  t.workers <- List.init config.workers (fun _ -> Thread.create worker_loop t);
  t

let enqueue t client ~id req =
  let tok = Pool.token () in
  let arrival_ms = Unix.gettimeofday () *. 1000. in
  Mutex.protect client.jlock (fun () ->
      Hashtbl.add client.active id tok;
      client.pending <- client.pending + 1);
  let accepted =
    Mutex.protect t.qlock (fun () ->
        if Atomic.get t.stop then false
        else begin
          let j =
            {
              j_id = id;
              j_req = req;
              j_deadline = effective_deadline_ms ~arrival_ms req.Solver.budget;
              j_seq = t.seq;
              j_cancel = tok;
              j_client = client;
            }
          in
          t.seq <- t.seq + 1;
          t.queue <- j :: t.queue;
          Condition.signal t.qcond;
          true
        end)
  in
  (* A SOLVE that raced [request_stop] must not land in a queue no
     worker will ever drain — the client's drain would block forever.
     Answer it CANCELLED and undo the registration instead. *)
  if not accepted then begin
    Telemetry.record_cancelled t.telemetry;
    Mutex.protect client.jlock (fun () ->
        Hashtbl.remove client.active id;
        client.pending <- client.pending - 1;
        Condition.broadcast client.drained);
    respond client (Protocol.render_cancelled ~id)
  end

(* ---- per-connection reader ---------------------------------------- *)

let read_line_opt ic = try Some (input_line ic) with End_of_file -> None

let drain client =
  Mutex.protect client.jlock (fun () ->
      while client.pending > 0 do
        Condition.wait client.drained client.jlock
      done)

(* A SOLVE line — valid header or not — is followed by an instance
   block; consuming it even on error keeps the connection framed. *)
let starts_with_solve line =
  match String.split_on_char ' ' (String.trim line) with
  | "SOLVE" :: _ -> true
  | _ -> false

let skip_block ic = ignore (Mf_core.Instance_io.read_framed (fun () -> read_line_opt ic))

let handle_solve t client (h : Protocol.header) =
  let id = h.Protocol.h_id in
  match Mf_core.Instance_io.read_framed (fun () -> read_line_opt client.ic) with
  | Error e ->
    Telemetry.record_error t.telemetry;
    respond client
      (Protocol.render_error ~id ~code:"bad-instance" (Mf_core.Instance_io.describe_error e))
  | Ok inst -> (
    match Protocol.to_request h inst with
    | Error re ->
      Telemetry.record_error t.telemetry;
      respond client
        (Protocol.render_error ~id ~code:"bad-request" (Solver.describe_request_error re))
    | Ok req ->
      let duplicate =
        Mutex.protect client.jlock (fun () -> Hashtbl.mem client.active id)
      in
      if duplicate then begin
        Telemetry.record_error t.telemetry;
        respond client
          (Protocol.render_error ~id ~code:"duplicate-id" "request id is still active")
      end
      (* a hit is answered here, with no queue push or worker wake-up;
         the worker's solve probes again, so a twin that lands while a
         miss waits still hits *)
      else if not (answer t client ~id (fun () -> Portfolio.cached ~cache:t.cache req)) then
        enqueue t client ~id req)

let handle_cancel t client id =
  let tok = Mutex.protect client.jlock (fun () -> Hashtbl.find_opt client.active id) in
  match tok with
  | Some tok ->
    Pool.cancel tok;
    respond client (Protocol.render_cancel_ok ~id)
  | None ->
    Telemetry.record_error t.telemetry;
    respond client (Protocol.render_error ~id ~code:"unknown-id" "no active request with this id")

(* One reader per connection: parses verb lines, answers cache hits,
   CANCEL and STATS inline and enqueues the other solves.  Every
   non-empty line gets exactly one response (a queued SOLVE's arrives
   from the worker). *)
let serve_client t ic oc =
  let client =
    {
      ic;
      oc;
      wlock = Mutex.create ();
      jlock = Mutex.create ();
      drained = Condition.create ();
      active = Hashtbl.create 8;
      pending = 0;
    }
  in
  (* Returns [true] to keep reading.  Any exception this dispatch lets
     slip would otherwise kill the connection thread silently, with no
     response for the offending line; mirror [run_job]'s catch-all
     instead: answer a structured internal error, then close the
     connection cleanly (after an unexpected failure the framing can no
     longer be trusted, so continuing could desync).  Connection-level
     failures ([Sys_error], [End_of_file]) still propagate to the
     caller's thread-level filter. *)
  let dispatch line =
    match Protocol.parse_command line with
    | Error ce ->
      if starts_with_solve line then skip_block ic;
      Telemetry.record_error t.telemetry;
      respond client
        (Protocol.render_error ?id:ce.Protocol.ce_id ~code:ce.Protocol.ce_code
           ce.Protocol.ce_message);
      true
    | Ok (Protocol.Solve h) ->
      handle_solve t client h;
      true
    | Ok (Protocol.Cancel id) ->
      handle_cancel t client id;
      true
    | Ok Protocol.Stats ->
      respond client (Telemetry.stats_line t.telemetry (Cache.stats t.cache));
      true
    | Ok Protocol.Quit ->
      drain client;
      respond client "BYE";
      false
  in
  let rec loop () =
    match read_line_opt ic with
    | None -> drain client
    | Some line when String.trim line = "" -> loop ()
    | Some line -> (
      match dispatch line with
      | true -> loop ()
      | false -> ()
      | exception ((Sys_error _ | End_of_file) as e) -> raise e
      | exception exn ->
        Telemetry.record_error t.telemetry;
        respond client (Protocol.render_error ~code:"internal" (Printexc.to_string exn));
        drain client)
  in
  loop ()

(* ---- lifecycle ---------------------------------------------------- *)

let request_stop t =
  Atomic.set t.stop true;
  Mutex.protect t.qlock (fun () -> Condition.broadcast t.qcond)

let shutdown t oc =
  request_stop t;
  List.iter Thread.join t.workers;
  Telemetry.dump t.telemetry (Cache.stats t.cache) oc

let stats_line t = Telemetry.stats_line t.telemetry (Cache.stats t.cache)

(* ---- unix socket accept loop -------------------------------------- *)

let serve_unix t ~socket_path =
  (if Sys.file_exists socket_path then try Unix.unlink socket_path with Unix.Unix_error _ -> ());
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close sock with Unix.Unix_error _ -> ());
      try Unix.unlink socket_path with Unix.Unix_error _ | Sys_error _ -> ())
    (fun () ->
      Unix.bind sock (Unix.ADDR_UNIX socket_path);
      Unix.listen sock 64;
      (* poll the stop flag between accepts so a signal handler setting
         it (SIGTERM) turns into a clean return, not a killed process *)
      let rec accept_loop () =
        if Atomic.get t.stop then ()
        else
          match Unix.select [ sock ] [] [] 0.2 with
          | [], _, _ -> accept_loop ()
          | _ ->
            let fd, _ = Unix.accept sock in
            let _ : Thread.t =
              Thread.create
                (fun fd ->
                  let ic = Unix.in_channel_of_descr fd in
                  let oc = Unix.out_channel_of_descr fd in
                  (try serve_client t ic oc with Sys_error _ | End_of_file -> ());
                  try Unix.close fd with Unix.Unix_error _ -> ())
                fd
            in
            accept_loop ()
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop ()
      in
      accept_loop ())
