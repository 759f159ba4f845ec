(** Resource telemetry: GC accounting, resident-set size, and domain-pool
    utilization — the flight recorder's "how much did it cost" axis,
    complementing the spans' "where did the time go".

    Everything here is observation-only and allocation-light:
    [Gc.quick_stat] does not walk the heap, and the RSS probe is one
    short read of [/proc/self/status] (with a portable fallback to the
    GC's top-of-heap watermark on systems without procfs). *)

(* ---- RSS ---- *)

let word_bytes = Sys.word_size / 8

(* Parse "VmHWM:    123456 kB"-style lines. Returns bytes. *)
let proc_status_kb key =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> None
  | ic ->
      let prefix = key ^ ":" in
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> None
        | line ->
            if String.length line > String.length prefix
               && String.sub line 0 (String.length prefix) = prefix
            then begin
              (* Strip the key, keep the first integer token. *)
              let rest = String.sub line (String.length prefix)
                           (String.length line - String.length prefix) in
              let buf = Buffer.create 12 in
              String.iter (fun c -> if c >= '0' && c <= '9' then Buffer.add_char buf c) rest;
              int_of_string_opt (Buffer.contents buf)
            end
            else scan ()
      in
      let r = scan () in
      close_in ic;
      Option.map (fun kb -> kb * 1024) r

(** Peak resident set size in bytes ([VmHWM]); falls back to the GC's
    top-of-major-heap watermark where procfs is unavailable, so the
    value is always usable as a relative regression signal. *)
let peak_rss_bytes () =
  match proc_status_kb "VmHWM" with
  | Some b -> b
  | None -> (Gc.quick_stat ()).Gc.top_heap_words * word_bytes

(** Current resident set size in bytes ([VmRSS]), same fallback. *)
let rss_bytes () =
  match proc_status_kb "VmRSS" with
  | Some b -> b
  | None -> (Gc.quick_stat ()).Gc.heap_words * word_bytes

(* ---- GC samples and deltas ---- *)

type sample = {
  time : float; (* Unix.gettimeofday at sampling *)
  minor_words : float;
  promoted_words : float;
  major_words : float;
  minor_collections : int;
  major_collections : int;
  compactions : int;
  heap_words : int;
  peak_rss : int; (* bytes *)
}

let sample () =
  let s = Gc.quick_stat () in
  {
    time = Unix.gettimeofday ();
    minor_words = s.Gc.minor_words;
    promoted_words = s.Gc.promoted_words;
    major_words = s.Gc.major_words;
    minor_collections = s.Gc.minor_collections;
    major_collections = s.Gc.major_collections;
    compactions = s.Gc.compactions;
    heap_words = s.Gc.heap_words;
    peak_rss = peak_rss_bytes ();
  }

type delta = {
  elapsed_s : float;
  d_minor_words : float;
  d_promoted_words : float;
  d_major_words : float;
  d_minor_collections : int;
  d_major_collections : int;
  d_compactions : int;
  peak_rss_bytes : int; (* absolute peak observed at the [after] sample *)
}

(** Interval accounting between two samples. GC word counters are
    monotonic per domain, so the deltas are exact for single-domain
    phases and a caller-domain lower bound under the pool. [peak_rss] is
    the absolute high-water mark, not a delta — peaks do not subtract. *)
let delta ~(before : sample) ~(after : sample) =
  {
    elapsed_s = after.time -. before.time;
    d_minor_words = after.minor_words -. before.minor_words;
    d_promoted_words = after.promoted_words -. before.promoted_words;
    d_major_words = after.major_words -. before.major_words;
    d_minor_collections = after.minor_collections - before.minor_collections;
    d_major_collections = after.major_collections - before.major_collections;
    d_compactions = after.compactions - before.compactions;
    peak_rss_bytes = after.peak_rss;
  }

let delta_to_json (d : delta) : Json.t =
  Json.Obj
    [
      ("elapsed_s", Json.Float d.elapsed_s);
      ("minor_words", Json.Float d.d_minor_words);
      ("promoted_words", Json.Float d.d_promoted_words);
      ("major_words", Json.Float d.d_major_words);
      ("minor_collections", Json.Int d.d_minor_collections);
      ("major_collections", Json.Int d.d_major_collections);
      ("compactions", Json.Int d.d_compactions);
      ("peak_rss_bytes", Json.Int d.peak_rss_bytes);
    ]

(** Parse a record previously written by [delta_to_json] (bench_diff and
    tests read resource columns back). *)
let delta_of_json j =
  let f k = Option.bind (Json.member k j) Json.to_float in
  let i k = Option.bind (Json.member k j) Json.to_int in
  match (f "elapsed_s", i "peak_rss_bytes") with
  | Some elapsed_s, Some peak_rss_bytes ->
      let f0 k = Option.value ~default:0.0 (f k) in
      let i0 k = Option.value ~default:0 (i k) in
      Some
        {
          elapsed_s;
          d_minor_words = f0 "minor_words";
          d_promoted_words = f0 "promoted_words";
          d_major_words = f0 "major_words";
          d_minor_collections = i0 "minor_collections";
          d_major_collections = i0 "major_collections";
          d_compactions = i0 "compactions";
          peak_rss_bytes;
        }
  | _ -> None

(* ---- context gauges ---- *)

(** Publish the current resource state as gauges on [ctx]: RSS peak and
    current, GC heap words and cumulative allocation/collection totals.
    Call at any cadence; gauges keep the last value. *)
let update_gauges ctx =
  if Ctx.enabled ctx then begin
    let s = sample () in
    Ctx.gauge ctx "res.peak_rss_bytes" (float_of_int s.peak_rss);
    Ctx.gauge ctx "res.rss_bytes" (float_of_int (rss_bytes ()));
    Ctx.gauge ctx "res.gc.heap_words" (float_of_int s.heap_words);
    Ctx.gauge ctx "res.gc.minor_words" s.minor_words;
    Ctx.gauge ctx "res.gc.major_words" s.major_words;
    Ctx.gauge ctx "res.gc.minor_collections" (float_of_int s.minor_collections);
    Ctx.gauge ctx "res.gc.major_collections" (float_of_int s.major_collections);
    Ctx.gauge ctx "res.gc.compactions" (float_of_int s.compactions)
  end

(* ---- domain-pool utilization ---- *)

(* Millisecond-ish bounds for kernel wall times: 1 µs .. ~1 min. *)
let ms_bounds = Array.init 26 (fun i -> 1e-3 *. (2.0 ** float_of_int i))

(** A [Util.Parallel] stats hook recording into [ctx]:

    - [par.<kernel>.ms]          histogram of per-call wall time;
    - [par.dispatches]           counter of named calls;
    - [par.<kernel>.imbalance]   histogram of max/mean chunk time;
    - [par.<kernel>.utilization] histogram of busy fraction
                                 (sum chunk_s / (chunks * wall));
    - [par.pool.utilization]     gauge, last utilization seen over any
                                 pool dispatch — the live signal an
                                 adaptive controller can poll.

    The last three describe the pool, so they are recorded only for
    calls that reached it: a call below its grain runs its chunks
    inline, one after another, and would read as ~1/chunks busy. *)
let parallel_hook ctx (s : Util.Parallel.stats) =
  Ctx.count ctx "par.dispatches";
  Ctx.observe ctx ~bounds:ms_bounds ("par." ^ s.kernel ^ ".ms") (s.total_s *. 1e3);
  if s.dispatched && s.chunks > 1 then begin
    let busy = Array.fold_left ( +. ) 0.0 s.chunk_s in
    let mx = Array.fold_left Float.max 0.0 s.chunk_s in
    let mean = busy /. float_of_int s.chunks in
    let util = busy /. Float.max 1e-9 (float_of_int s.chunks *. s.total_s) in
    Ctx.observe ctx ("par." ^ s.kernel ^ ".imbalance") (mx /. Float.max 1e-9 mean);
    Ctx.observe ctx
      ~bounds:[| 0.1; 0.2; 0.3; 0.4; 0.5; 0.6; 0.7; 0.8; 0.9; 1.0 |]
      ("par." ^ s.kernel ^ ".utilization")
      (Float.min 1.0 util);
    Ctx.gauge ctx "par.pool.utilization" (Float.min 1.0 util)
  end
