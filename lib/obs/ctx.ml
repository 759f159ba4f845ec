(** The observability context threaded through the pipeline.

    Passed explicitly, never ambient: libraries take [?obs] defaulting to
    [null]; binaries create one and hand it down. [null] is permanently
    disabled so every observation call is a cheap branch — observability
    is strictly observation-only and must never perturb placement results.

    Spans are well-nested (single-threaded discipline): [span] pushes on
    an explicit stack and [Fun.protect] guarantees the span completes —
    and is delivered to sinks — on every exit, including exceptions. *)

type t = {
  enabled : bool;
  mutable sinks : Sink.t list;
  metrics : Metric.registry;
  clock : unit -> float;
  t0 : float;
  mutable next_id : int;
  mutable stack : Span.t list; (* innermost open span first *)
}

let null =
  {
    enabled = false;
    sinks = [];
    metrics = Metric.create_registry ();
    clock = (fun () -> 0.0);
    t0 = 0.0;
    next_id = 0;
    stack = [];
  }

let create ?(clock = Unix.gettimeofday) ?(sinks = []) () =
  {
    enabled = true;
    sinks;
    metrics = Metric.create_registry ();
    clock;
    t0 = clock ();
    next_id = 0;
    stack = [];
  }

let enabled t = t.enabled

let add_sink t sink = if t.enabled then t.sinks <- t.sinks @ [ sink ]

(** Detach a sink previously added (physical equality). *)
let remove_sink t sink = if t.enabled then t.sinks <- List.filter (fun s -> s != sink) t.sinks

let now t = t.clock () -. t.t0

(** Run [f] inside a named span. Disabled contexts run [f] directly. *)
let span t ?(attrs = []) name f =
  if not t.enabled then f ()
  else begin
    let parent = match t.stack with [] -> -1 | p :: _ -> p.Span.id in
    let id = t.next_id in
    t.next_id <- id + 1;
    let s = Span.make ~id ~parent ~name ~start:(now t) ~attrs in
    t.stack <- s :: t.stack;
    Fun.protect
      ~finally:(fun () ->
        s.Span.dur <- now t -. s.Span.start;
        (match t.stack with
        | top :: rest when top == s -> t.stack <- rest
        | stack -> t.stack <- List.filter (fun x -> x != s) stack);
        List.iter (fun (sink : Sink.t) -> sink.Sink.on_span s) t.sinks)
      f
  end

(** Attach attributes to the innermost open span (no-op outside any span
    or on a disabled context). *)
let span_attrs t kvs =
  if t.enabled then match t.stack with s :: _ -> Span.add_attrs s kvs | [] -> ()

(* ---- metrics ---- *)

let count t ?(by = 1.0) name = if t.enabled then Metric.incr t.metrics ~by name

let gauge t name v = if t.enabled then Metric.set_gauge t.metrics name v

let observe t ?bounds name v = if t.enabled then Metric.observe t.metrics ?bounds name v

let metric t name = Metric.find t.metrics name

(** Current metric snapshot as a JSON list of metric records. *)
let metrics_json t =
  Json.List (List.map (fun (name, m) -> Metric.to_json ~name m) (Metric.snapshot t.metrics))

(* ---- lifecycle ---- *)

(** Push the metric snapshot to every sink and flush them. *)
let flush t =
  if t.enabled then begin
    let snap = Metric.snapshot t.metrics in
    List.iter
      (fun (sink : Sink.t) ->
        sink.Sink.on_metrics snap;
        sink.Sink.flush ())
      t.sinks
  end

(** Flush, then close and detach every sink. *)
let close t =
  flush t;
  List.iter (fun (sink : Sink.t) -> sink.Sink.close ()) t.sinks;
  t.sinks <- []
