(* lib/obs: spans, metrics, sinks, JSON, and the observation-only
   guarantee (tracing must not change placement results). *)

let check_float = Alcotest.(check (float 1e-9))

(* ---------------- Json ---------------- *)

let test_json_roundtrip () =
  let v =
    Obs.Json.Obj
      [
        ("i", Obs.Json.Int 42);
        ("neg", Obs.Json.Int (-7));
        ("s", Obs.Json.String "a \"quoted\"\nline\t\\slash");
        ("b", Obs.Json.Bool true);
        ("nil", Obs.Json.Null);
        ("l", Obs.Json.List [ Obs.Json.Int 1; Obs.Json.Bool false; Obs.Json.String "" ]);
        ("o", Obs.Json.Obj [ ("nested", Obs.Json.List []) ]);
      ]
  in
  let v' = Obs.Json.parse_exn (Obs.Json.to_string v) in
  Alcotest.(check bool) "roundtrip equal" true (v = v');
  (* Parsed equality misses a change in the emitted bytes: pin them.
     0.1 +. 0.2 needs %.17g to round-trip; 1.5 prints with %.12g. *)
  let raw = "q\"b\\n\nt\tc\001" in
  let v =
    Obs.Json.Obj
      [
        (raw, Obs.Json.String raw);
        ("f", Obs.Json.List [ Obs.Json.Float 1.5; Obs.Json.Float (0.1 +. 0.2) ]);
      ]
  in
  Alcotest.(check string)
    "exact bytes" {|{"q\"b\\n\nt\tc\u0001":"q\"b\\n\nt\tc\u0001","f":[1.5,0.30000000000000004]}|}
    (Obs.Json.to_string v);
  (* Every byte value, escaped or copied, as the printf reference writes it. *)
  let all_bytes = Obs.Json.String (String.init 256 Char.chr) in
  Alcotest.(check string)
    "every byte" (Helpers.Json_ref.to_string all_bytes) (Obs.Json.to_string all_bytes);
  (* \u escapes decode to UTF-8: a surrogate pair is one 4-byte code
     point (U+1F600), and the bytes round-trip unescaped. *)
  let decoded = Obs.Json.parse_exn {|"\u00e9\u20ac\ud83d\ude00"|} in
  Alcotest.(check bool) "utf-8 decode" true
    (decoded = Obs.Json.String "\xc3\xa9\xe2\x82\xac\xf0\x9f\x98\x80");
  Alcotest.(check bool) "utf-8 roundtrip" true
    (Obs.Json.parse_exn (Obs.Json.to_string decoded) = decoded)

let test_json_floats () =
  let j = Obs.Json.parse_exn "{\"a\": 1.5, \"b\": -2.25e2, \"c\": 3}" in
  let get k = Option.bind (Obs.Json.member k j) Obs.Json.to_float in
  Alcotest.(check (option (float 1e-9))) "a" (Some 1.5) (get "a");
  Alcotest.(check (option (float 1e-9))) "b" (Some (-225.0)) (get "b");
  Alcotest.(check (option (float 1e-9))) "c (int coerces)" (Some 3.0) (get "c");
  (* Non-finite floats must emit as null, keeping every line parseable. *)
  Alcotest.(check string) "nan -> null" "null" (Obs.Json.to_string (Obs.Json.Float Float.nan));
  Alcotest.(check bool)
    "trailing garbage rejected" true
    (match Obs.Json.parse "{} x" with Error _ -> true | Ok _ -> false)

let encode_float buf f =
  Buffer.clear buf;
  Obs.Json.write buf (Obs.Json.Float f);
  Buffer.contents buf

(* The encoder's integer path against the printf rule it replaces, on
   the edges of its exact range and on >= 1M seeded floats. *)
let test_json_float_repr () =
  let buf = Buffer.create 64 in
  let mismatches = ref 0 and first = ref None in
  let check f =
    let want = Helpers.Json_ref.float_repr f and got = encode_float buf f in
    if got <> want then begin
      incr mismatches;
      if !first = None then first := Some (Printf.sprintf "%h: want %s, got %s" f want got)
    end
  in
  List.iter check
    [
      0.0; -0.0; Float.nan; Float.infinity; Float.neg_infinity; 5e-324; -5e-324;
      Float.min_float; Float.max_float; -.Float.max_float; 1e-5; 9.99995e-5; 1e-4;
      999999999999.5; 1e11; 1e12; 1e16; 9.9999999999999995e16; 1e17; 0.1 +. 0.2; 0.5;
      2.5; 1.5; -1.0; 123456789012.5; 0.000123456789012;
    ];
  for k = -22 to 22 do
    let p = float_of_string (Printf.sprintf "1e%d" k) in
    List.iter (fun f -> check f; check (-.f)) [ p; Float.succ p; Float.pred p ]
  done;
  for k = -20 to 20 do
    let p = float_of_string (Printf.sprintf "1e%d" k) in
    check (p *. 0.999999999999)
  done;
  let st = Random.State.make [| 20261020 |] in
  let rec pow10 k = if k = 0 then 1 else 10 * pow10 (k - 1) in
  let decimal digits exp =
    let m = 1 + Random.State.full_int st (pow10 digits - 1) in
    float_of_string (Printf.sprintf "%de%d" m exp)
  in
  let sign f = if Random.State.bool st then f else -.f in
  let per = 150_000 in
  for _ = 1 to per do
    check (Random.State.float st 2000.0 -. 1000.0);
    check (Int64.float_of_bits (Random.State.bits64 st));
    check (float_of_int (Random.State.int st 2_000_000 - 1_000_000) /. 100.0);
    check (sign (decimal (1 + Random.State.int st 16) (Random.State.int st 31 - 15)));
    let d12 = decimal 12 (Random.State.int st 31 - 15) in
    check (sign (if Random.State.bool st then Float.succ d12 else Float.pred d12));
    check (sign (d12 *. 3.0));
    check (float_of_int (Random.State.bits st - (1 lsl 29)))
  done;
  (match !first with Some m -> Alcotest.failf "%d mismatches, first %s" !mismatches m | None -> ())

(* A float the integer path settles writes into the buffer and
   allocates nothing of its own. *)
let test_json_float_alloc () =
  let st = Random.State.make [| 7 |] in
  let values =
    Array.init 100_000 (fun _ -> Obs.Json.Float (Random.State.float st 2000.0 -. 1000.0))
  in
  let buf = Buffer.create (32 * Array.length values) in
  let w0 = Gc.minor_words () in
  Array.iter (Obs.Json.write buf) values;
  let per_float = (Gc.minor_words () -. w0) /. float_of_int (Array.length values) in
  Alcotest.(check bool)
    (Printf.sprintf "%.3f minor words per float (want < 1)" per_float)
    true (per_float < 1.0)

(* ---------------- Spans ---------------- *)

(* A hand-cranked clock makes span durations exact. *)
let manual_ctx sinks =
  let now = ref 0.0 in
  let ctx = Obs.Ctx.create ~clock:(fun () -> !now) ~sinks () in
  (ctx, fun dt -> now := !now +. dt)

let test_span_nesting () =
  let sink, get_spans, _ = Obs.Sink.memory () in
  let ctx, tick = manual_ctx [ sink ] in
  Obs.Ctx.span ctx "outer" (fun () ->
      tick 1.0;
      Obs.Ctx.span ctx "inner" (fun () -> tick 0.25);
      Obs.Ctx.span ctx "inner" (fun () -> tick 0.5);
      tick 1.0);
  match get_spans () with
  | [ i1; i2; o ] ->
      (* Children complete (and reach the sink) before their parent. *)
      Alcotest.(check string) "first child" "inner" i1.Obs.Span.name;
      Alcotest.(check string) "second child" "inner" i2.Obs.Span.name;
      Alcotest.(check string) "parent last" "outer" o.Obs.Span.name;
      Alcotest.(check int) "i1 parented" o.Obs.Span.id i1.Obs.Span.parent;
      Alcotest.(check int) "i2 parented" o.Obs.Span.id i2.Obs.Span.parent;
      Alcotest.(check int) "outer is root" (-1) o.Obs.Span.parent;
      check_float "i1 dur" 0.25 i1.Obs.Span.dur;
      check_float "i2 dur" 0.5 i2.Obs.Span.dur;
      check_float "outer dur" 2.75 o.Obs.Span.dur;
      check_float "i1 start" 1.0 i1.Obs.Span.start
  | spans -> Alcotest.failf "expected 3 spans, got %d" (List.length spans)

let test_span_exception_safety () =
  let sink, get_spans, _ = Obs.Sink.memory () in
  let ctx, tick = manual_ctx [ sink ] in
  (try
     Obs.Ctx.span ctx "boom" (fun () ->
         tick 0.125;
         failwith "expected")
   with Failure _ -> ());
  (match get_spans () with
  | [ s ] ->
      Alcotest.(check string) "span delivered" "boom" s.Obs.Span.name;
      check_float "dur recorded" 0.125 s.Obs.Span.dur
  | spans -> Alcotest.failf "expected 1 span, got %d" (List.length spans));
  (* The stack unwound: the next span is a root again. *)
  Obs.Ctx.span ctx "after" (fun () -> ());
  match get_spans () with
  | [ _; after ] -> Alcotest.(check int) "root after exception" (-1) after.Obs.Span.parent
  | _ -> Alcotest.fail "expected 2 spans"

let test_span_attrs () =
  let sink, get_spans, _ = Obs.Sink.memory () in
  let ctx, _ = manual_ctx [ sink ] in
  Obs.Ctx.span ctx ~attrs:[ ("k", Obs.Json.Int 1) ] "s" (fun () ->
      Obs.Ctx.span_attrs ctx [ ("hpwl", Obs.Json.Float 2.5) ]);
  match get_spans () with
  | [ s ] ->
      Alcotest.(check int) "two attrs" 2 (List.length s.Obs.Span.attrs);
      Alcotest.(check bool) "late attr present" true (List.mem_assoc "hpwl" s.Obs.Span.attrs)
  | _ -> Alcotest.fail "expected 1 span"

(* ---------------- Aggregator (self time) ---------------- *)

let test_agg_self_time () =
  let agg = Obs.Agg.create () in
  let ctx, tick = manual_ctx [ Obs.Agg.sink agg ] in
  Obs.Ctx.span ctx "outer" (fun () ->
      tick 1.0;
      Obs.Ctx.span ctx "inner" (fun () -> tick 3.0);
      tick 0.5);
  let outer = Option.get (Obs.Agg.get agg "outer") in
  let inner = Option.get (Obs.Agg.get agg "inner") in
  check_float "outer total" 4.5 outer.Obs.Agg.total;
  check_float "outer self excludes child" 1.5 outer.Obs.Agg.self;
  check_float "inner total" 3.0 inner.Obs.Agg.total;
  check_float "inner self" 3.0 inner.Obs.Agg.self;
  match Obs.Agg.to_breakdown agg with
  | [ (n1, t1); (n2, t2) ] ->
      Alcotest.(check string) "largest first" "outer" n1;
      Alcotest.(check string) "then inner" "inner" n2;
      check_float "t1" 4.5 t1;
      check_float "t2" 3.0 t2
  | _ -> Alcotest.fail "expected 2 breakdown rows"

(* ---------------- Metrics ---------------- *)

let test_counter_gauge () =
  let ctx, _ = manual_ctx [] in
  Obs.Ctx.count ctx "c";
  Obs.Ctx.count ctx ~by:2.5 "c";
  Obs.Ctx.gauge ctx "g" 7.0;
  Obs.Ctx.gauge ctx "g" 9.0;
  (match Obs.Ctx.metric ctx "c" with
  | Some (Obs.Metric.Counter r) -> check_float "counter sums" 3.5 !r
  | _ -> Alcotest.fail "counter missing");
  (match Obs.Ctx.metric ctx "g" with
  | Some (Obs.Metric.Gauge r) -> check_float "gauge keeps last" 9.0 !r
  | _ -> Alcotest.fail "gauge missing");
  Alcotest.check_raises "kind mismatch rejected"
    (Invalid_argument "Metric \"c\" registered with another kind") (fun () ->
      Obs.Ctx.gauge ctx "c" 1.0)

let test_histogram_quantiles () =
  let h = Obs.Metric.histogram_create [| 1.0; 2.0; 4.0 |] in
  List.iter (Obs.Metric.histogram_observe h) [ 0.5; 1.5; 3.0; 8.0 ];
  Alcotest.(check (array int)) "bucket counts" [| 1; 1; 1; 1 |] h.Obs.Metric.counts;
  check_float "mean" 3.25 (Obs.Metric.mean h);
  (* q=0 / q=1 clamp to the observed extremes; interior quantiles
     interpolate linearly inside the containing bucket. *)
  check_float "q0 = vmin" 0.5 (Obs.Metric.quantile h 0.0);
  check_float "q1 = vmax" 8.0 (Obs.Metric.quantile h 1.0);
  check_float "q0.5 = second bucket top" 2.0 (Obs.Metric.quantile h 0.5);
  check_float "q0.25 = first bucket top" 1.0 (Obs.Metric.quantile h 0.25);
  Alcotest.(check bool) "empty histogram -> nan" true
    (Float.is_nan (Obs.Metric.quantile (Obs.Metric.histogram_create [| 1.0 |]) 0.5))

(* ---------------- JSONL sink ---------------- *)

let test_jsonl_sink () =
  let path = Filename.temp_file "obs_test" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let ctx, tick = manual_ctx [ Obs.Sink.jsonl path ] in
      Obs.Ctx.span ctx "a" (fun () ->
          tick 1.0;
          Obs.Ctx.span ctx ~attrs:[ ("k", Obs.Json.String "v") ] "b" (fun () -> tick 2.0));
      Obs.Ctx.count ctx "events";
      Obs.Ctx.observe ctx "lat" 0.5;
      Obs.Ctx.close ctx;
      let ic = open_in path in
      let lines = ref [] in
      (try
         while true do
           lines := input_line ic :: !lines
         done
       with End_of_file -> close_in ic);
      let records = List.rev_map Obs.Json.parse_exn !lines in
      let typ j = Option.bind (Obs.Json.member "type" j) Obs.Json.to_string_opt in
      let spans = List.filter (fun j -> typ j = Some "span") records in
      let metrics = List.filter (fun j -> typ j = Some "metric") records in
      Alcotest.(check int) "2 span lines" 2 (List.length spans);
      Alcotest.(check int) "2 metric lines" 2 (List.length metrics);
      let b = List.find (fun j -> Option.bind (Obs.Json.member "name" j) Obs.Json.to_string_opt = Some "b") spans in
      Alcotest.(check (option (float 1e-9))) "b dur serialized" (Some 2.0)
        (Option.bind (Obs.Json.member "dur" b) Obs.Json.to_float);
      Alcotest.(check bool) "b carries attrs" true (Obs.Json.member "attrs" b <> None))

(* A trace read back from its JSONL file, in file order, aggregates to
   the same per-name count / total / self as the live aggregator
   (trace_report summarises files this way). *)
let test_jsonl_replay_matches_agg () =
  let path = Filename.temp_file "obs_test" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let live = Obs.Agg.create () in
      let ctx, tick = manual_ctx [ Obs.Agg.sink live; Obs.Sink.jsonl path ] in
      Obs.Ctx.span ctx "flow" (fun () ->
          for i = 1 to 3 do
            Obs.Ctx.span ctx "iter" (fun () ->
                tick 0.25;
                Obs.Ctx.span ctx "grad" (fun () -> tick (0.125 *. float_of_int i));
                if i = 2 then
                  Obs.Ctx.span ctx "round" (fun () ->
                      Obs.Ctx.span ctx "grad" (fun () -> tick 1.0)))
          done;
          tick 0.75);
      Obs.Ctx.close ctx;
      let replay = Obs.Agg.create () in
      String.split_on_char '\n' (Helpers.read_file path)
      |> List.filter (( <> ) "")
      |> List.iter (fun line ->
             let j = Obs.Json.parse_exn line in
             let get k conv = Option.get (Option.bind (Obs.Json.member k j) conv) in
             if get "type" Obs.Json.to_string_opt = "span" then begin
               let s =
                 Obs.Span.make ~id:(get "id" Obs.Json.to_int)
                   ~parent:(get "parent" Obs.Json.to_int)
                   ~name:(get "name" Obs.Json.to_string_opt) ~start:0.0 ~attrs:[]
               in
               s.Obs.Span.dur <- get "dur" Obs.Json.to_float;
               Obs.Agg.record replay s
             end);
      Alcotest.(check int) "same names" (List.length (Obs.Agg.stats live))
        (List.length (Obs.Agg.stats replay));
      List.iter
        (fun (name, (l : Obs.Agg.stat)) ->
          let r = Option.get (Obs.Agg.get replay name) in
          Alcotest.(check int) (name ^ " count") l.count r.count;
          check_float (name ^ " total") l.total r.total;
          check_float (name ^ " self") l.self r.self)
        (Obs.Agg.stats live))

(* ---------------- Disabled context ---------------- *)

let test_null_ctx_noop () =
  let ctx = Obs.Ctx.null in
  Alcotest.(check bool) "disabled" false (Obs.Ctx.enabled ctx);
  let sink, get_spans, _ = Obs.Sink.memory () in
  Obs.Ctx.add_sink ctx sink;
  let r = Obs.Ctx.span ctx "s" (fun () -> 41 + 1) in
  Alcotest.(check int) "body still runs" 42 r;
  Obs.Ctx.count ctx "c";
  Obs.Ctx.gauge ctx "g" 1.0;
  Obs.Ctx.observe ctx "h" 1.0;
  Obs.Ctx.span_attrs ctx [ ("k", Obs.Json.Null) ];
  Obs.Ctx.flush ctx;
  Alcotest.(check int) "no spans captured" 0 (List.length (get_spans ()));
  Alcotest.(check bool) "no metrics" true (Obs.Ctx.metric ctx "c" = None);
  Alcotest.(check bool) "snapshot empty" true (Obs.Ctx.metrics_json ctx = Obs.Json.List [])

(* ---------------- Resource telemetry ---------------- *)

let test_resource_delta () =
  let before = Obs.Resource.sample () in
  (* Allocate enough to move the minor-words counter for sure. *)
  let junk = ref [] in
  for i = 0 to 100_000 do
    junk := (i, float_of_int i) :: !junk
  done;
  ignore (List.length !junk);
  let after = Obs.Resource.sample () in
  let d = Obs.Resource.delta ~before ~after in
  Alcotest.(check bool) "minor words grew" true (d.Obs.Resource.d_minor_words > 0.0);
  Alcotest.(check bool) "elapsed >= 0" true (d.Obs.Resource.elapsed_s >= 0.0);
  Alcotest.(check bool) "gc counters monotonic" true
    (d.Obs.Resource.d_minor_collections >= 0
    && d.Obs.Resource.d_major_collections >= 0
    && d.Obs.Resource.d_compactions >= 0);
  Alcotest.(check bool) "peak rss positive" true (d.Obs.Resource.peak_rss_bytes > 0);
  Alcotest.(check bool) "peak >= current heap fallback sane" true
    (Obs.Resource.peak_rss_bytes () > 0 && Obs.Resource.rss_bytes () > 0);
  (* JSON roundtrip is exact (no string re-parse involved). *)
  Alcotest.(check bool) "delta json roundtrip" true
    (Obs.Resource.delta_of_json (Obs.Resource.delta_to_json d) = Some d);
  (* Gauges land in the registry. *)
  let ctx, _ = manual_ctx [] in
  Obs.Resource.update_gauges ctx;
  match Obs.Ctx.metric ctx "res.peak_rss_bytes" with
  | Some (Obs.Metric.Gauge r) -> Alcotest.(check bool) "gauge positive" true (!r > 0.0)
  | _ -> Alcotest.fail "res.peak_rss_bytes gauge missing"

(* ---------------- Timeline exports ---------------- *)

(* outer [0,2.75]: 1.0s, then inner 0.25, inner 0.5, then 1.0s. *)
let sample_spans () =
  let sink, get_spans, _ = Obs.Sink.memory () in
  let ctx, tick = manual_ctx [ sink ] in
  Obs.Ctx.span ctx "outer" (fun () ->
      tick 1.0;
      Obs.Ctx.span ctx "inner" (fun () -> tick 0.25);
      Obs.Ctx.span ctx ~attrs:[ ("k", Obs.Json.Int 7) ] "inner" (fun () -> tick 0.5);
      tick 1.0);
  get_spans ()

let test_chrome_trace_wellformed () =
  let spans = sample_spans () in
  let doc =
    Obs.Timeline.to_chrome_trace ~process_name:"test"
      ~metrics:[ ("events", Obs.Metric.Counter (ref 3.0)) ]
      spans
  in
  (* Structural validation happens on the re-parsed document, proving the
     serialised form (what Perfetto sees) is what we checked. *)
  let doc = Obs.Json.parse_exn (Obs.Json.to_string doc) in
  let events =
    match Option.bind (Obs.Json.member "traceEvents" doc) Obs.Json.to_list with
    | Some l -> l
    | None -> Alcotest.fail "no traceEvents list"
  in
  (* meta + 3 spans + 1 counter *)
  Alcotest.(check int) "event count" 5 (List.length events);
  let ph j = Option.bind (Obs.Json.member "ph" j) Obs.Json.to_string_opt in
  let fget k j = Option.bind (Obs.Json.member k j) Obs.Json.to_float in
  (match events with
  | meta :: _ ->
      Alcotest.(check (option string)) "meta first" (Some "M") (ph meta);
      Alcotest.(check (option string)) "process name" (Some "test")
        (Option.bind (Obs.Json.member "args" meta) (fun a ->
             Option.bind (Obs.Json.member "name" a) Obs.Json.to_string_opt))
  | [] -> Alcotest.fail "empty events");
  let xs = List.filter (fun j -> ph j = Some "X") events in
  Alcotest.(check int) "3 complete events" 3 (List.length xs);
  List.iter
    (fun j ->
      Alcotest.(check bool) "ts present" true (fget "ts" j <> None);
      Alcotest.(check bool) "dur present" true (fget "dur" j <> None);
      Alcotest.(check bool) "pid/tid present" true
        (Obs.Json.member "pid" j <> None && Obs.Json.member "tid" j <> None))
    xs;
  (* The second inner span started at t=1.25 and ran 0.5 s -> µs. *)
  let inner2 =
    List.find (fun j -> fget "ts" j = Some 1.25e6) xs
  in
  Alcotest.(check (option (float 1e-3))) "dur in µs" (Some 0.5e6) (fget "dur" inner2);
  Alcotest.(check bool) "attrs become args" true
    (Option.bind (Obs.Json.member "args" inner2) (Obs.Json.member "k") <> None);
  let cs = List.filter (fun j -> ph j = Some "C") events in
  (match cs with
  | [ c ] ->
      Alcotest.(check (option (float 1e-3))) "counter at trace end" (Some 2.75e6) (fget "ts" c);
      Alcotest.(check (option (float 1e-9))) "counter value" (Some 3.0)
        (Option.bind (Obs.Json.member "args" c) (fun a -> fget "value" a))
  | l -> Alcotest.failf "expected 1 counter event, got %d" (List.length l))

let test_folded_stacks () =
  let spans = sample_spans () in
  (match Obs.Timeline.to_folded spans with
  | [ ("outer", outer_self); ("outer;inner", inner_self) ] ->
      (* outer dur 2.75 minus 0.75 of children; both inners collapse. *)
      check_float "outer self" 2.0 outer_self;
      check_float "inner stack aggregates" 0.75 inner_self
  | l ->
      Alcotest.failf "unexpected folded stacks: %s"
        (String.concat ", " (List.map fst l)));
  Alcotest.(check string) "flamegraph.pl dialect" "outer 2000000\nouter;inner 750000\n"
    (Obs.Timeline.folded_to_string (Obs.Timeline.to_folded spans))

(* ---------------- Heartbeat ---------------- *)

let test_heartbeat_cadence () =
  let ctx, tick_clock = manual_ctx [] in
  let records = ref [] in
  let hb = Obs.Heartbeat.create ~every_iters:10 ~emit:(fun r -> records := r :: !records) ctx in
  Obs.Ctx.count ctx "guard.nan_detected";
  Obs.Ctx.count ctx "guard.nan_detected";
  Obs.Heartbeat.note_timing hb ~tns:(-100.0) ~wns:(-10.0);
  for iter = 1 to 35 do
    tick_clock 0.1;
    if iter = 20 then Obs.Heartbeat.note_timing hb ~tns:(-40.0) ~wns:(-4.0);
    Obs.Heartbeat.tick hb ~iter ~overflow:(1.0 /. float_of_int iter)
  done;
  (* First tick emits, then every 10 iterations: 1, 11, 21, 31. *)
  let rs = List.rev !records in
  Alcotest.(check (list int)) "emission iters" [ 1; 11; 21; 31 ]
    (List.map (fun (r : Obs.Heartbeat.record) -> r.iter) rs);
  Alcotest.(check (list int)) "seq numbering" [ 0; 1; 2; 3 ]
    (List.map (fun (r : Obs.Heartbeat.record) -> r.seq) rs);
  (match rs with
  | [ r1; r11; r21; _ ] ->
      check_float "clock time recorded" 0.1 r1.t;
      check_float "guard counter snapshot" 2.0 r1.guard_nan;
      check_float "first trend is 0" 0.0 r1.tns_trend;
      check_float "unchanged trend is 0" 0.0 r11.tns_trend;
      check_float "tns trend" 60.0 r21.tns_trend;
      check_float "wns trend" 6.0 r21.wns_trend;
      check_float "latest tns" (-40.0) r21.tns
  | _ -> Alcotest.fail "expected 4 records");
  (* Time trigger, deterministic under the injected clock. *)
  let records2 = ref [] in
  let hb2 =
    Obs.Heartbeat.create ~every_iters:max_int ~every_seconds:1.0
      ~emit:(fun r -> records2 := r :: !records2)
      ctx
  in
  for iter = 1 to 10 do
    tick_clock 0.3;
    Obs.Heartbeat.tick hb2 ~iter ~overflow:0.5
  done;
  Alcotest.(check (list int)) "time-triggered iters" [ 1; 5; 9 ]
    (List.map (fun (r : Obs.Heartbeat.record) -> r.iter) (List.rev !records2));
  Alcotest.check_raises "bad cadence rejected"
    (Invalid_argument "Heartbeat.create: every_iters must be positive") (fun () ->
      ignore (Obs.Heartbeat.create ~every_iters:0 ctx))

(* [reset] must return a heartbeat to its just-created state so a
   long-lived daemon's next request starts a fresh epoch: sequence
   numbers restart, the first tick emits again regardless of the old
   cadence origin, and the producer latches forget the previous job's
   tns/wns (no trend computed against another request's timing). The
   configuration and subscribers survive. *)
let test_heartbeat_reset () =
  let ctx, tick_clock = manual_ctx [] in
  let records = ref [] in
  let hb = Obs.Heartbeat.create ~every_iters:10 ~emit:(fun r -> records := r :: !records) ctx in
  let subscribed = ref 0 in
  Obs.Heartbeat.on_record hb (fun _ -> incr subscribed);
  Obs.Heartbeat.note_timing hb ~tns:(-100.0) ~wns:(-10.0);
  for iter = 1 to 15 do
    tick_clock 0.1;
    Obs.Heartbeat.tick hb ~iter ~overflow:0.5
  done;
  Alcotest.(check int) "records before reset" 2 (List.length !records);
  Obs.Heartbeat.reset hb;
  records := [];
  for iter = 1 to 15 do
    tick_clock 0.1;
    Obs.Heartbeat.tick hb ~iter ~overflow:0.5
  done;
  let rs = List.rev !records in
  Alcotest.(check (list int)) "cadence restarts: first tick emits again" [ 1; 11 ]
    (List.map (fun (r : Obs.Heartbeat.record) -> r.iter) rs);
  Alcotest.(check (list int)) "seq restarts at 0" [ 0; 1 ]
    (List.map (fun (r : Obs.Heartbeat.record) -> r.seq) rs);
  (match rs with
  | first :: _ ->
      Alcotest.(check bool) "timing latch cleared" true (Float.is_nan first.tns);
      Alcotest.(check bool) "hpwl latch cleared" true (Float.is_nan first.hpwl);
      Alcotest.(check (float 0.0)) "no trend against the previous job" 0.0 first.tns_trend;
      Alcotest.(check bool) "extraction latch cleared" true (first.extraction = None)
  | [] -> Alcotest.fail "no records after reset");
  Alcotest.(check int) "subscribers survive the reset" 4 !subscribed

let test_heartbeat_json () =
  let ctx, _ = manual_ctx [] in
  let out = ref [] in
  let hb = Obs.Heartbeat.create ~emit:(fun r -> out := r :: !out) ctx in
  Obs.Heartbeat.note_hpwl hb 1234.5;
  Obs.Heartbeat.note_extraction hb ~failing:3 ~paths:30 ~pairs:90 ~sta_s:0.2 ~extract_s:0.05;
  Obs.Heartbeat.force hb ~iter:42 ~overflow:0.25;
  let r = List.hd !out in
  let j = Obs.Json.parse_exn (Obs.Json.to_string (Obs.Heartbeat.to_json r)) in
  let str k = Option.bind (Obs.Json.member k j) Obs.Json.to_string_opt in
  let num k = Option.bind (Obs.Json.member k j) Obs.Json.to_float in
  Alcotest.(check (option string)) "type tag" (Some "heartbeat") (str "type");
  List.iter
    (fun k -> Alcotest.(check bool) (k ^ " present") true (Obs.Json.member k j <> None))
    [ "overflow"; "hpwl"; "tns"; "wns"; "tns_trend"; "wns_trend"; "guard_nan"; "guard_rollbacks" ];
  Alcotest.(check (option (float 1e-9))) "overflow" (Some 0.25) (num "overflow");
  Alcotest.(check (option (float 1e-9))) "hpwl" (Some 1234.5) (num "hpwl");
  (* tns was never noted: nan serialises as null per Json convention. *)
  Alcotest.(check bool) "unnoted tns is null" true (Obs.Json.member "tns" j = Some Obs.Json.Null);
  match Obs.Json.member "extraction" j with
  | Some ext ->
      Alcotest.(check (option (float 1e-9))) "extraction failing" (Some 3.0)
        (Option.bind (Obs.Json.member "failing" ext) Obs.Json.to_float)
  | None -> Alcotest.fail "extraction object missing"

(* ---------------- Bench regression sentinel ---------------- *)

let bench_entry ?(failed = false) ~label ~runtime ~rss ~hpwl ~self () =
  Obs.Json.Obj
    ([
       ("label", Obs.Json.String label);
       ("design", Obs.Json.String "sbX");
       ("runtime", Obs.Json.Float runtime);
       ("resource", Obs.Json.Obj [ ("peak_rss_bytes", Obs.Json.Float rss) ]);
       ("metrics", Obs.Json.Obj [ ("hpwl", Obs.Json.Float hpwl) ]);
       ( "breakdown_self",
         Obs.Json.Obj (List.map (fun (k, v) -> (k, Obs.Json.Float v)) self) );
     ]
    @
    if failed then [ ("error", Obs.Json.Obj [ ("kind", Obs.Json.String "diverged") ]) ]
    else [ ("error", Obs.Json.Null) ])

let bench_doc entries =
  Obs.Json.Obj
    [
      ("schema", Obs.Json.String "bench-results-v1");
      ("results", Obs.Json.List entries);
    ]

let mb = 1024.0 *. 1024.0

let test_benchcmp () =
  let th = Obs.Benchcmp.default_thresholds in
  let base =
    bench_doc
      [ bench_entry ~label:"ours" ~runtime:1.0 ~rss:(64.0 *. mb) ~hpwl:1000.0
          ~self:[ ("sta", 0.2); ("tiny", 0.001) ] () ]
  in
  (* Self-comparison passes. *)
  (match Obs.Benchcmp.compare_docs th ~baseline:base ~current:base with
  | Ok [] -> ()
  | Ok vs -> Alcotest.failf "self-compare produced %d violations" (List.length vs)
  | Error e -> Alcotest.fail e);
  (* A regressed current run trips runtime, RSS, self:sta and hpwl — but
     not the sub-floor "tiny" phase even at 100x. *)
  let regressed =
    bench_doc
      [ bench_entry ~label:"ours" ~runtime:6.0 ~rss:(512.0 *. mb) ~hpwl:2000.0
          ~self:[ ("sta", 2.0); ("tiny", 0.1) ] () ]
  in
  (match Obs.Benchcmp.compare_docs th ~baseline:base ~current:regressed with
  | Ok vs ->
      let whats = List.map (fun (v : Obs.Benchcmp.violation) -> v.what) vs in
      Alcotest.(check (list string)) "violations (sorted)"
        [ "hpwl"; "peak_rss"; "runtime"; "self:sta" ]
        whats
  | Error e -> Alcotest.fail e);
  (* A baseline entry absent (or failed) in the current run is a
     violation; a failed baseline entry is skipped. *)
  let base2 =
    bench_doc
      [
        bench_entry ~label:"ours" ~runtime:1.0 ~rss:(64.0 *. mb) ~hpwl:1000.0 ~self:[] ();
        bench_entry ~label:"other" ~runtime:1.0 ~rss:(64.0 *. mb) ~hpwl:1000.0 ~self:[] ();
        bench_entry ~failed:true ~label:"broken" ~runtime:99.0 ~rss:(9e9) ~hpwl:9e9 ~self:[] ();
      ]
  in
  let cur2 =
    bench_doc
      [ bench_entry ~label:"ours" ~runtime:1.0 ~rss:(64.0 *. mb) ~hpwl:1000.0 ~self:[] () ]
  in
  (match Obs.Benchcmp.compare_docs th ~baseline:base2 ~current:cur2 with
  | Ok [ v ] ->
      Alcotest.(check string) "missing entry flagged" "missing" v.Obs.Benchcmp.what;
      Alcotest.(check string) "which entry" "sbX/other" v.Obs.Benchcmp.key
  | Ok vs -> Alcotest.failf "expected 1 violation, got %d" (List.length vs)
  | Error e -> Alcotest.fail e);
  (* Schema guard. *)
  match
    Obs.Benchcmp.compare_docs th
      ~baseline:(Obs.Json.Obj [ ("schema", Obs.Json.String "nope") ])
      ~current:base
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "wrong schema accepted"

(* ---------------- Observation-only flows ---------------- *)

let flow_cfg = { Tdp.Config.default with timing_start = 120; extra_iters = 180 }

let test_flow_identical_with_tracing () =
  (* Same design, same seed, tracing off vs on: placements must be
     bit-identical — observability is observation-only. *)
  let d_off = Helpers.small_calibrated () in
  let d_on = Helpers.small_calibrated () in
  let r_off = Tdp.Flow.run ~obs:Obs.Ctx.null (Tdp.Flow.Efficient flow_cfg) d_off in
  let sink, get_spans, _ = Obs.Sink.memory () in
  let ctx = Obs.Ctx.create ~sinks:[ sink ] () in
  let r_on = Tdp.Flow.run ~obs:ctx (Tdp.Flow.Efficient flow_cfg) d_on in
  let farr_to_array (a : Netlist.Design.farr) =
    Array.init (Bigarray.Array1.dim a) (fun i -> a.{i})
  in
  Alcotest.(check (array (float 0.0))) "x identical"
    (farr_to_array d_off.Netlist.Design.x)
    (farr_to_array d_on.Netlist.Design.x);
  Alcotest.(check (array (float 0.0))) "y identical"
    (farr_to_array d_off.Netlist.Design.y)
    (farr_to_array d_on.Netlist.Design.y);
  check_float "tns identical" r_off.metrics.tns r_on.metrics.tns;
  check_float "hpwl identical" r_off.metrics.hpwl r_on.metrics.hpwl;
  (* The traced run actually observed the pipeline... *)
  let names = List.map (fun s -> s.Obs.Span.name) (get_spans ()) in
  List.iter
    (fun n -> Alcotest.(check bool) (n ^ " span present") true (List.mem n names))
    [ "flow"; "gp_iter"; "sta"; "extraction"; "sta+extraction"; "legalize" ];
  (* ...and the null run still reports a breakdown through its private
     context, while an explicit null context yields none. *)
  Alcotest.(check bool) "null ctx -> empty breakdown" true (r_off.breakdown = []);
  Alcotest.(check bool) "traced run has breakdown" true (List.mem_assoc "sta" r_on.breakdown)

let suite =
  [
    Alcotest.test_case "json roundtrip" `Quick test_json_roundtrip;
    Alcotest.test_case "json floats + errors" `Quick test_json_floats;
    Alcotest.test_case "json float repr matches printf rule" `Slow test_json_float_repr;
    Alcotest.test_case "json float encode allocation" `Quick test_json_float_alloc;
    Alcotest.test_case "span nesting + durations" `Quick test_span_nesting;
    Alcotest.test_case "span exception safety" `Quick test_span_exception_safety;
    Alcotest.test_case "span attrs" `Quick test_span_attrs;
    Alcotest.test_case "aggregator self time" `Quick test_agg_self_time;
    Alcotest.test_case "counters + gauges" `Quick test_counter_gauge;
    Alcotest.test_case "histogram quantiles" `Quick test_histogram_quantiles;
    Alcotest.test_case "jsonl sink" `Quick test_jsonl_sink;
    Alcotest.test_case "jsonl replay matches aggregator" `Quick test_jsonl_replay_matches_agg;
    Alcotest.test_case "null context no-op" `Quick test_null_ctx_noop;
    Alcotest.test_case "resource delta accounting" `Quick test_resource_delta;
    Alcotest.test_case "chrome trace well-formed" `Quick test_chrome_trace_wellformed;
    Alcotest.test_case "folded stacks" `Quick test_folded_stacks;
    Alcotest.test_case "heartbeat cadence determinism" `Quick test_heartbeat_cadence;
    Alcotest.test_case "heartbeat reset restores a fresh epoch" `Quick test_heartbeat_reset;
    Alcotest.test_case "heartbeat json record" `Quick test_heartbeat_json;
    Alcotest.test_case "bench regression sentinel" `Quick test_benchcmp;
    Alcotest.test_case "tracing leaves placement identical" `Slow test_flow_identical_with_tracing;
  ]
