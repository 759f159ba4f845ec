(** Resource telemetry: GC accounting, resident-set size, and domain-pool
    utilization gauges. Observation-only; sampling is allocation-light. *)

(** Peak resident set size in bytes ([VmHWM] from [/proc/self/status]);
    falls back to the GC top-of-heap watermark without procfs. *)
val peak_rss_bytes : unit -> int

(** Current resident set size in bytes ([VmRSS]), same fallback. *)
val rss_bytes : unit -> int

type sample = {
  time : float;
  minor_words : float;
  promoted_words : float;
  major_words : float;
  minor_collections : int;
  major_collections : int;
  compactions : int;
  heap_words : int;
  peak_rss : int; (* bytes *)
}

(** One [Gc.quick_stat] + RSS probe. *)
val sample : unit -> sample

type delta = {
  elapsed_s : float;
  d_minor_words : float;
  d_promoted_words : float;
  d_major_words : float;
  d_minor_collections : int;
  d_major_collections : int;
  d_compactions : int;
  peak_rss_bytes : int; (* absolute high-water mark at [after] *)
}

(** Interval accounting between two samples; GC counters are subtracted,
    the RSS peak is the absolute watermark (peaks do not subtract). *)
val delta : before:sample -> after:sample -> delta

val delta_to_json : delta -> Json.t

(** Inverse of [delta_to_json]; [None] if required fields are missing. *)
val delta_of_json : Json.t -> delta option

(** Publish current RSS/GC state as [res.*] gauges on the context. *)
val update_gauges : Ctx.t -> unit

(** A [Util.Parallel] stats hook recording into the context: the
    [par.<kernel>.ms] histogram and the [par.dispatches] counter for
    every named call, and, for calls that reached the pool only, the
    [par.<kernel>.imbalance] / [.utilization] histograms and the
    [par.pool.utilization] gauge. Pass it to [Util.Parallel.create]. *)
val parallel_hook : Ctx.t -> Util.Parallel.stats -> unit
