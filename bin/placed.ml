(** Placement-as-a-service daemon. Loads designs once, keeps the warm
    state (design DB, STA graph + RC trees, last placement) resident, and
    serves placement jobs over a JSONL protocol — one request object per
    line, one reply object per line.

    Transports: stdin/stdout (default) or a Unix-domain socket
    (--socket PATH; sequential connections, one line-oriented session
    each, until a shutdown request).

    Example session:
      {"id":"1","op":"load","params":{"suite":"sb18","name":"sb18"}}
      {"id":"2","op":"place","params":{"design":"sb18","flow":"efficient"}}
      {"id":"3","op":"replace","params":{"design":"sb18","random_frac":0.01}}
      {"id":"4","op":"report_timing","params":{"design":"sb18","n":5}}
      {"id":"5","op":"stats"}
      {"id":"6","op":"shutdown"}

    Replies are {"id","ok":true,"result":...} or {"id","ok":false,
    "error":{"kind","message",...}} with the same error taxonomy as the
    one-shot binaries (config_error, invalid_design, diverged,
    infeasible, parse_error); transport-level problems reply with kinds
    "bad_request" / "internal". No job kills the daemon: a failed
    request leaves the loaded designs consistent and the loop running. *)

open Cmdliner

let serve_stdin engine =
  Obs.Log.info "placed: serving JSONL on stdin";
  Service.Engine.serve engine stdin stdout

let serve_socket engine path =
  if Sys.file_exists path then Unix.unlink path;
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind sock (Unix.ADDR_UNIX path);
  Unix.listen sock 8;
  Obs.Log.info "placed: serving JSONL on unix socket %s" path;
  let rec accept_loop () =
    if Service.Engine.shutdown_requested engine then ()
    else begin
      let client, _ = Unix.accept sock in
      let ic = Unix.in_channel_of_descr client in
      let oc = Unix.out_channel_of_descr client in
      (try Service.Engine.serve engine ic oc with Sys_error _ | End_of_file -> ());
      (try Unix.close client with Unix.Unix_error _ -> ());
      accept_loop ()
    end
  in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close sock with Unix.Unix_error _ -> ());
      try Unix.unlink path with Unix.Unix_error _ | Sys_error _ -> ())
    accept_loop

let run socket domains trace_out heartbeat_out heartbeat_every log_level =
  (match log_level with Some l -> Obs.Log.set_level l | None -> ());
  (* A client hanging up mid-reply must not kill a daemon holding warm
     state for other sessions. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  Util.Parallel.set_num_domains domains;
  Obs.Log.info "parallel: %d domain(s)" !Util.Parallel.num_domains;
  let sinks = match trace_out with Some path -> [ Obs.Sink.jsonl path ] | None -> [] in
  let ctx = Obs.Ctx.create ~sinks () in
  Obs.Resource.install_parallel ctx;
  let heartbeat, heartbeat_close =
    match heartbeat_out with
    | Some path ->
        let emit, close = Obs.Heartbeat.jsonl_emitter path in
        (Some (Obs.Heartbeat.create ~every_iters:heartbeat_every ~emit ctx), close)
    | None -> (None, fun () -> ())
  in
  let engine = Service.Engine.create ~obs:ctx ?heartbeat () in
  Fun.protect
    ~finally:(fun () ->
      heartbeat_close ();
      Obs.Ctx.close ctx)
    (fun () ->
      match socket with
      | Some path -> serve_socket engine path
      | None -> serve_stdin engine);
  Obs.Log.info "placed: shutting down (%d job(s) served, %d failed)"
    (Service.Jobs.completed (Service.Engine.jobs engine))
    (Service.Jobs.failed (Service.Engine.jobs engine));
  0

let socket =
  Arg.(value & opt (some string) None
       & info [ "socket" ] ~docv:"PATH"
           ~doc:"Serve on a Unix-domain socket instead of stdin/stdout.")

let domains =
  Arg.(value & opt int 1
       & info [ "domains" ] ~docv:"N"
           ~doc:"Parallel domains for the hot kernels (1 = sequential; results are \
                 deterministic per fixed N).")

let trace_out =
  Arg.(value & opt (some string) None
       & info [ "trace-out" ] ~docv:"FILE" ~doc:"Write the span/metric trace as JSONL.")

let heartbeat_out =
  Arg.(value & opt (some string) None
       & info [ "heartbeat-out" ] ~docv:"FILE"
           ~doc:"Stream periodic progress records (JSONL) while jobs run; the cadence \
                 resets per request.")

let heartbeat_every =
  Arg.(value & opt int 25
       & info [ "heartbeat-every" ] ~docv:"N" ~doc:"Heartbeat cadence in placement iterations.")

let log_level =
  let levels =
    List.map (fun l -> (Obs.Log.to_string l, l)) Obs.Log.[ Quiet; Error; Warn; Info; Debug ]
  in
  Arg.(value & opt (some (enum levels)) None
       & info [ "log-level" ] ~docv:"LEVEL"
           ~doc:"quiet | error | warn | info | debug (default: \\$OBS_LEVEL or info).")

let cmd =
  let doc = "placement-as-a-service daemon (warm caches, incremental re-placement)" in
  Cmd.v (Cmd.info "placed" ~doc)
    Term.(const run $ socket $ domains $ trace_out $ heartbeat_out $ heartbeat_every $ log_level)

let () = exit (Cmd.eval' cmd)
