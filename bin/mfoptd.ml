(* mfoptd - long-running solver daemon.

   Serves the Mf_daemon wire protocol over a Unix-domain socket (or
   stdin/stdout with --stdio), multiplexing concurrent clients over one
   shared answer cache and one shared domain pool.  SIGTERM/SIGINT stop
   the accept loop, drain the workers, dump telemetry to stderr and
   exit 0. *)

open Cmdliner
module Server = Mf_daemon.Server

let socket =
  Arg.(
    value
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket to listen on.")

let stdio =
  Arg.(
    value & flag
    & info [ "stdio" ] ~doc:"Serve a single client over stdin/stdout instead of a socket.")

let jobs =
  Arg.(
    value & opt int 1
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Domains for the exact engine's shared pool, at most the recommended domain count \
           (outcomes are bit-identical for any N).")

let cache_capacity =
  Arg.(
    value
    & opt int Mf_solve.Cache.default_capacity
    & info [ "cache-capacity" ] ~docv:"N" ~doc:"Entries in the shared answer cache.")

let workers =
  Arg.(
    value & opt int Server.default_config.Server.workers
    & info [ "workers" ] ~docv:"N" ~doc:"Request worker threads.")

let run socket stdio jobs cache_capacity workers =
  if jobs < 1 || cache_capacity < 1 || workers < 1 then begin
    prerr_endline "mfoptd: --jobs, --cache-capacity and --workers must be at least 1";
    exit 2
  end;
  let srv = Server.create ~config:{ Server.jobs; cache_capacity; workers } () in
  let stop_signal _ = Server.request_stop srv in
  ignore (Sys.signal Sys.sigterm (Sys.Signal_handle stop_signal));
  ignore (Sys.signal Sys.sigint (Sys.Signal_handle stop_signal));
  ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore);
  (match (stdio, socket) with
  | true, _ -> Server.serve_client srv stdin stdout
  | false, Some path ->
    prerr_endline ("mfoptd: listening on " ^ path);
    Server.serve_unix srv ~socket_path:path
  | false, None ->
    prerr_endline "mfoptd: pass --socket PATH or --stdio";
    exit 2);
  Server.shutdown srv stderr;
  exit 0

let () =
  let doc = "Long-running solver daemon for micro-factory instances." in
  let info = Cmd.info "mfoptd" ~version:"1.0.0" ~doc in
  exit (Cmd.eval (Cmd.v info Term.(const run $ socket $ stdio $ jobs $ cache_capacity $ workers)))
