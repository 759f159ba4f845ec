(** The daemon's wire protocol: one JSON object per line (JSONL), both
    directions. Requests carry an opaque client [id] echoed back in the
    reply, an [op] name and an optional [params] object:

    {v
      {"id":"1","op":"load","params":{"design":"sb1","scale":0.15}}
      {"id":"2","op":"place","params":{"design":"sb1","flow":"efficient"}}
    v}

    Replies are ["ok": true] with a [result] payload, or ["ok": false]
    with an [error] object in exactly the shape of [place --report-json]
    (kind / message / per-kind fields), so one client-side decoder
    serves both the daemon and the one-shot CLI. *)

type request = { id : string; op : string; params : Obs.Json.t }

(** The longest request line a reader accepts: 16 MiB, far above the
    largest inline ECO delta a client sends. *)
val max_line_bytes : int

type line =
  | Line of string (* without its newline *)
  | Too_long (* longer than {!max_line_bytes}; its bytes were skipped *)
  | Eof

(** A bounded line reader over a channel. *)
type reader

val reader : in_channel -> reader

(** The next line. An over-long line is consumed up to its newline
    without being kept, so memory stays bounded by the cap and the next
    call reads the following line. A last line without a newline is
    still a [Line]. *)
val read_line : reader -> line

(** Parse one request line. [Error] describes the syntax problem — the
    caller turns it into an [error_reply] rather than dying, so a
    malformed line can never take the daemon down. Requests missing
    ["id"] parse with [id = ""] (the reply is still well formed). *)
val parse_request : string -> (request, string) result

(** Parameter accessors: [None] when absent or of the wrong type. *)
val param_string : request -> string -> string option

val param_float : request -> string -> float option

val param_int : request -> string -> int option

val param_bool : request -> string -> bool option

val param : request -> string -> Obs.Json.t option

(** [{"id"; "ok": true; "result"}] *)
val ok_reply : id:string -> Obs.Json.t -> Obs.Json.t

(** [{"id"; "ok": false; "error": {kind; message; ...fields}}] *)
val error_reply : id:string -> Util.Errors.t -> Obs.Json.t

(** An error reply for failures outside the typed taxonomy (protocol
    syntax, unknown op, unexpected exception): kind is the caller's tag
    (e.g. ["bad_request"], ["internal"]). *)
val raw_error_reply : id:string -> kind:string -> message:string -> Obs.Json.t

(** Typed error payload alone (the ["error"] field value) — shared with
    the binaries' report writers. *)
val error_to_json : Util.Errors.t -> Obs.Json.t
