(** The daemon's request engine: one dispatcher shared by the stdin-JSONL
    loop, the Unix-socket loop, the in-process bench driver and the
    tests.

    The contract that makes [placed] a daemon rather than a batch tool:
    {!handle} NEVER raises. Typed pipeline failures ([Util.Errors.Error])
    come back as structured error replies carrying the same kind/fields
    payload as the binaries' [--report-json] error object; foreign-file
    parse failures reply with kind ["parse_error"]; anything else is
    wrapped as kind ["internal"]. A failed job leaves the registry
    consistent (ECO deltas validate before they mutate) and the next
    request proceeds.

    Per request the engine opens an [svc.<op>] span on its context and
    resets the heartbeat, so a job never inherits the previous job's tick
    origin or trend baseline.

    Ops: [ping], [load] (path via [Formats.Auto] or suite generator),
    [place], [replace] (ECO delta + warm-start re-placement + incremental
    re-time), [report_timing], [stats], [unload], [shutdown]. *)

type t

val create : ?obs:Obs.Ctx.t -> ?heartbeat:Obs.Heartbeat.t -> unit -> t

val state : t -> State.t

val jobs : t -> Jobs.t

(** Set once a [shutdown] request is handled; the serving loops drain and
    exit when they see it. *)
val shutdown_requested : t -> bool

(** Dispatch one request to a reply (never raises). [fault] (robustness
    tests only; not on the wire) is this job's flow fault plan. *)
val handle : ?fault:Util.Fault.plan -> t -> Protocol.request -> Obs.Json.t

(** Parse one JSONL line and dispatch; malformed lines get a
    kind ["bad_request"] error reply (never raises). *)
val handle_line : t -> string -> Obs.Json.t

(** Serve a JSONL session: one reply line on [oc] per request line read
    from [ic] (blank lines are skipped), until end of input or a handled
    [shutdown]. A line longer than [Protocol.max_line_bytes] gets a
    ["bad_request"] reply and the session goes on. A client that hangs up
    mid-reply loses that reply only. *)
val serve : t -> in_channel -> out_channel -> unit
