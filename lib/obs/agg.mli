(** In-memory span aggregator: per-name count / total / self durations.
    Self time = duration minus completed children (valid under the
    single-threaded well-nested span discipline of [Ctx.span]). *)

type stat = {
  mutable count : int;
  mutable total : float;
  mutable self : float;
  mutable dmin : float;
  mutable dmax : float;
}

type t

val create : unit -> t

(** Fold one completed span in (children must be recorded before their
    parent — the order [Ctx.span] delivers). *)
val record : t -> Span.t -> unit

(** The aggregator as a context sink. *)
val sink : t -> Sink.t

val stats : t -> (string * stat) list

val get : t -> string -> stat option

(** Accumulated total seconds under [name] (0 when never seen). *)
val total : t -> string -> float

(** Per-name total seconds, largest first: the shape that
    [Tdp.Flow.result.breakdown] promises. *)
val to_breakdown : t -> (string * float) list

(** Per-name self seconds (total minus children), largest first —
    additive across phases, the regression sentinel's attribution. *)
val to_self_breakdown : t -> (string * float) list
