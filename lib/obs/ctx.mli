(** The observability context threaded through the pipeline.

    Passed explicitly, never ambient: libraries take [?obs] defaulting
    to {!null}, which is permanently disabled — every observation call
    is then a cheap branch, and observability can never perturb results. *)

type t

(** The disabled context: spans run their body directly, metrics are
    dropped, [add_sink] and [remove_sink] are no-ops. *)
val null : t

(** A live context. [clock] defaults to [Unix.gettimeofday] (injectable
    for deterministic tests). *)
val create : ?clock:(unit -> float) -> ?sinks:Sink.t list -> unit -> t

val enabled : t -> bool

val add_sink : t -> Sink.t -> unit

(** Detach a sink previously added (physical equality). *)
val remove_sink : t -> Sink.t -> unit

(** Seconds since the context was created. *)
val now : t -> float

(** Run [f] inside a named span; the span completes (and reaches sinks)
    on every exit, including exceptions. *)
val span : t -> ?attrs:(string * Json.t) list -> string -> (unit -> 'a) -> 'a

(** Attach attributes to the innermost open span. *)
val span_attrs : t -> (string * Json.t) list -> unit

val count : t -> ?by:float -> string -> unit

val gauge : t -> string -> float -> unit

val observe : t -> ?bounds:float array -> string -> float -> unit

val metric : t -> string -> Metric.m option

(** Current metric snapshot as a JSON list of metric records. *)
val metrics_json : t -> Json.t

(** Push the metric snapshot to every sink and flush them. *)
val flush : t -> unit

(** Flush, then close and detach every sink. *)
val close : t -> unit
