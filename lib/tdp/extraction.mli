(** The timing-round driver: every m placement iterations, re-time,
    extract critical paths with the configured command, fold them into the
    pin-pair set (paper Sec. III-D), and ratchet the attraction strength
    down when timing is met. *)

type round_stats = {
  iter : int;
  tns : float;
  wns : float;
  num_failing : int;
  num_paths : int;
  num_pairs : int; (* |P| after the round *)
  sta_time : float;
  extract_time : float;
}

type t

(** Extracts paths of the timer's design. Each round emits [sta] and
    [extraction] spans on [obs] plus counters (rounds, endpoints visited,
    paths extracted, pair-weight updates) and tns/wns/|P| gauges; give
    the timer the same context to nest its [sta.*] spans. *)
val create : ?obs:Obs.Ctx.t -> Sta.Timer.t -> config:Config.t -> t

(** One timing round at placement iteration [iter]. *)
val round : t -> iter:int -> round_stats

(** Unscaled pin-pair gradient; the flow normalises it against the
    wirelength gradient and applies {!effective_beta}. *)
val add_grad : t -> gx:float array -> gy:float array -> unit

(** Config beta times the relax ratchet (drops toward 0.15x when every
    endpoint meets timing, recovers when violations return). *)
val effective_beta : t -> float

(** Chronological round statistics. *)
val rounds : t -> round_stats list
