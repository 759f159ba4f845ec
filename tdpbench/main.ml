(* tdpbench: the repository benchmark's OCaml side.

     main.exe gen --workload W --seed S --dir D [--size full|tiny]
     main.exe run --workload W --dir D --seconds N --trace 0|1 [--chrome-trace F]

   [gen] writes a workload's inputs; [run] reads them, measures, checks
   the outputs and prints one JSON result as its last stdout line (the
   end-to-end metrics with --trace 0, the per-layer metrics of a traced
   run with --trace 1). run.py drives both; see README.md. *)

let workloads = [ "tdp-suite"; "gp-50k"; "svc-eco" ]

(* A run measures for --seconds: after a fixed first part (the round-1
   cold placements and one re-placement of each design, or the first 13
   service cycles), it goes on until the time is up. The quality metrics
   come from the fixed part, so they repeat exactly. A traced run does
   only the fixed part. *)
let body ~workload ~dir ~seconds ~traced (r : Client.run) =
  let entries = Inputs.read_manifest dir in
  let until = if traced then 0.0 else Unix.gettimeofday () +. seconds in
  match workload with
  | "tdp-suite" ->
      Client.run_flows r
        {
          meth = Tdp.Flow.Efficient Tdp.Config.default;
          entries;
          min_rounds = 2;
          until;
          cold_again = true;
          retimes = 1;
          queries = 100;
        }
  | "gp-50k" ->
      Client.run_flows r
        { meth = Tdp.Flow.Vanilla; entries; min_rounds = 2; until; cold_again = false; retimes = 2; queries = 200 }
  | "svc-eco" ->
      Client.run_session r
        {
          entry = List.hd entries;
          lines = Array.of_list (Inputs.read_lines (Inputs.script dir));
          setup_reps = (if traced then 1 else 3);
          (* 13 cycles x 16 queries at least, so p95 has 10 samples above it. *)
          min_cycles = 13;
          until;
          burst = 16;
        }
  | w -> failwith ("unknown workload " ^ w)

let result ~(r : Client.run) metrics =
  Obs.Json.Obj
    [
      ("correct", Obs.Json.Bool (r.failed = 0));
      ("attempted", Obs.Json.Int r.attempted);
      ("failed", Obs.Json.Int r.failed);
      ( "metrics",
        Obs.Json.Obj
          (List.map
             (fun (name, value, unit) ->
               (name, Obs.Json.Obj [ ("value", Obs.Json.Float value); ("unit", Obs.Json.String unit) ]))
             metrics) );
    ]

let require what = function
  | [] -> failwith (Printf.sprintf "no successful %s sample" what)
  | l -> l

let peak_rss_mb () = float_of_int (Obs.Resource.peak_rss_bytes ()) /. 1048576.0

let end_to_end ~workload ~dir ~seconds =
  let r = Client.create Obs.Ctx.null in
  body ~workload ~dir ~seconds ~traced:false r;
  List.iter
    (fun (what, l) -> Printf.printf "%s: %d samples\n" what (List.length l))
    [ ("setup", r.setup); ("place", r.place); ("replace", r.replace) ];
  List.iter
    (fun (what, l) ->
      let l = List.map (fun x -> x *. 1000.0) l in
      Printf.printf "%s: %d samples, median %.4g ms, trimmed mean %.4g ms\n" what (List.length l)
        (Client.median l) (Client.trimmed_mean l))
    [ ("retime", r.retime); ("query", r.query) ];
  let ms l = List.map (fun x -> x *. 1000.0) l in
  result ~r
    [
      ("setup_s", Client.per_design Client.median (require "setup" r.setup), "s");
      ("place_s", Client.per_design Client.trimmed_mean (require "place" r.place), "s");
      ("replace_s", Client.per_design Client.trimmed_mean (require "replace" r.replace), "s");
      ("retime_ms", Client.trimmed_mean (ms (require "retime" r.retime)), "ms");
      ("query_ms", Client.trimmed_mean (ms (require "query" r.query)), "ms");
      ("query_p95_ms", Client.quantile (ms (require "query" r.query)) 0.95, "ms");
      ("tns_ps", r.tns, "ps");
      ("wns_ps", r.wns, "ps");
      ("hpwl", r.hpwl, "site");
      ("peak_rss_mb", peak_rss_mb (), "MiB");
    ]

(* Paper Table I at each end-state placement: report_timing_endpoint(n, 1)
   against report_timing(n), n = failing endpoints; coverage is distinct
   endpoints reached over failing endpoints (1 when nothing fails). *)
let table1 designs =
  let ept_s = ref 0.0 and rt_s = ref 0.0 in
  let ept_cov = ref 0 and rt_cov = ref 0 and failing = ref 0 in
  let distinct paths =
    List.length (List.sort_uniq compare (List.map (fun (p : Sta.Paths.path) -> p.endpoint) paths))
  in
  List.iter
    (fun d ->
      let tm = Sta.Timer.create d in
      Sta.Timer.update tm;
      let n = Sta.Timer.num_failing_endpoints tm in
      if n > 0 then begin
        let t0 = Unix.gettimeofday () in
        let ept = Sta.Timer.report_timing_endpoint tm ~n ~k:1 in
        let t1 = Unix.gettimeofday () in
        let rt = Sta.Timer.report_timing tm ~n in
        let t2 = Unix.gettimeofday () in
        ept_s := !ept_s +. (t1 -. t0);
        rt_s := !rt_s +. (t2 -. t1);
        ept_cov := !ept_cov + distinct ept;
        rt_cov := !rt_cov + distinct rt;
        failing := !failing + n
      end)
    designs;
  let cov c = if !failing = 0 then 1.0 else float_of_int c /. float_of_int !failing in
  [
    ("sta.ept_ms", !ept_s *. 1000.0, "ms");
    ("sta.rt_ms", !rt_s *. 1000.0, "ms");
    ("sta.ept_coverage", cov !ept_cov, "ratio");
    ("sta.rt_coverage", cov !rt_cov, "ratio");
  ]

(* The service ratios, from the [sta.update] spans under each request:
   a re-time inside [svc.replace] but outside its [flow] is the
   incremental update [State.note_eco] runs, which the flow then
   invalidates before any query reads it. *)
let service_ratios spans =
  let by_id = Hashtbl.create 1024 in
  List.iter (fun (s : Obs.Span.t) -> Hashtbl.replace by_id s.id s) spans;
  let rec ancestors (s : Obs.Span.t) acc =
    match Hashtbl.find_opt by_id s.parent with
    | Some p -> ancestors p (p :: acc)
    | None -> acc
  in
  let discarded = ref 0 and session = ref 0 and retimed = Hashtbl.create 64 in
  List.iter
    (fun (s : Obs.Span.t) ->
      if s.name = "sta.update" then begin
        let anc = ancestors s [] in
        let has n = List.exists (fun (a : Obs.Span.t) -> a.name = n) anc in
        if not (has "flow") then begin
          if has "svc.replace" then (incr discarded; incr session);
          match List.find_opt (fun (a : Obs.Span.t) -> a.name = "svc.report_timing") anc with
          | Some q ->
              incr session;
              Hashtbl.replace retimed q.id ()
          | None -> ()
        end
      end)
    spans;
  let queries = List.length (List.filter (fun (s : Obs.Span.t) -> s.name = "svc.report_timing") spans) in
  let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b in
  [
    ("svc.retime_discarded_ratio", ratio !discarded !session, "ratio");
    ("svc.warm_query_ratio", ratio (queries - Hashtbl.length retimed) queries, "ratio");
  ]

let per_layer ~workload ~dir ~seconds ~chrome_trace =
  (* Untraced reference first, then the same body traced. *)
  let plain = Client.create Obs.Ctx.null in
  Gc.compact ();
  let t0 = Unix.gettimeofday () in
  body ~workload ~dir ~seconds ~traced:true plain;
  let untraced_s = Unix.gettimeofday () -. t0 in
  Gc.compact ();
  let rec_ = Layers.create () in
  let r = Client.create rec_.ctx in
  let gc0 = Gc.quick_stat () in
  let t0 = Unix.gettimeofday () in
  Obs.Ctx.span rec_.ctx "bench.run" (fun () -> body ~workload ~dir ~seconds ~traced:true r);
  let traced_s = Unix.gettimeofday () -. t0 in
  let gc1 = Gc.quick_stat () in
  let probe = table1 r.finals in
  let recorded = List.rev !(rec_.spans) in
  let spans = List.map (fun (x : Layers.recorded) -> x.span) recorded in
  let stats = Layers.aggregate !(rec_.spans) in
  let stat name = Hashtbl.find_opt stats name in
  let total name = match stat name with Some s -> s.Layers.total | None -> 0.0 in
  let self name = match stat name with Some s -> s.Layers.self | None -> 0.0 in
  let counter name =
    match Obs.Ctx.metric rec_.ctx name with
    | Some (Obs.Metric.Counter c) -> !c
    | _ -> 0.0
  in
  let layer_time = Hashtbl.create 8 and layer_words = Hashtbl.create 8 in
  let bump tbl k v = Hashtbl.replace tbl k (v +. Option.value ~default:0.0 (Hashtbl.find_opt tbl k)) in
  Hashtbl.iter
    (fun name (st : Layers.stat) ->
      match Layers.layer_of name with
      | Some layer ->
          bump layer_time layer st.self;
          bump layer_words layer st.self_words
      | None -> ())
    stats;
  let layer tbl name = Option.value ~default:0.0 (Hashtbl.find_opt tbl name) in
  let e2e = total "bench.run" in
  let accounted = Hashtbl.fold (fun _ v acc -> acc +. v) layer_time 0.0 in
  Hashtbl.iter
    (fun name v -> Printf.printf "layer %-8s self %8.3f s  %14.0f words\n" name v (layer layer_words name))
    layer_time;
  Printf.printf "traced %.3f s, untraced %.3f s, spans %d\n" traced_s untraced_s (List.length spans);
  (match chrome_trace with
  | Some path ->
      Inputs.write_file path
        (Obs.Json.to_string
           (Obs.Timeline.to_chrome_trace ~process_name:("tdpbench " ^ workload) spans))
  | None -> ());
  let r_all = { r with attempted = r.attempted + plain.attempted; failed = r.failed + plain.failed } in
  result ~r:r_all
    ([
       ("formats.parse_s", total "bench.formats.load", "s");
       ("formats.minor_words", layer layer_words "formats", "words");
       ("gp.wl_grad_s", total "wl_grad", "s");
       ("gp.density_s", total "density", "s");
       ("gp.optimizer_s", total "optimizer", "s");
       ("gp.iter_s", self "gp_iter", "s");
       ("gp.iters", counter "gp.iters", "count");
       ("gp.nesterov_steps", counter "nesterov.steps", "count");
       ("gp.rollbacks", counter "guard.rollbacks", "count");
       ("gp.legalize_s", total "legalize", "s");
       ("gp.detailed_s", total "detailed", "s");
       ("gp.minor_words", layer layer_words "gp", "words");
       ("sta.delay_s", total "sta.delay", "s");
       ("sta.arrival_s", total "sta.arrival", "s");
       ("sta.required_s", total "sta.required", "s");
       ("sta.full_updates", counter "sta.full_updates", "count");
       ("sta.incremental_updates", counter "sta.incremental_updates", "count");
     ]
    @ probe
    @ [
        ("tdp.extraction_s", total "extraction", "s");
        ("tdp.pp_grad_s", total "pp_grad", "s");
        ("tdp.rounds", counter "extraction.rounds", "count");
        ("tdp.paths", counter "extraction.paths", "count");
        ("tdp.pairs", float_of_int r.pairs, "count");
        ("tdp.minor_words", layer layer_words "tdp", "words");
        ("evalkit.evaluate_s", total "evaluate", "s");
        ("svc.load_s", total "svc.load", "s");
        ("svc.place_s", total "svc.place", "s");
        ("svc.replace_s", total "svc.replace", "s");
        ("svc.report_timing_s", total "svc.report_timing", "s");
        ("svc.codec_s", self "bench.svc.call" +. total "bench.svc.encode", "s");
      ]
    @ service_ratios spans
    @ [
        ("unaccounted_pct", 100.0 *. (e2e -. accounted) /. e2e, "%");
        ("obs.overhead_pct", 100.0 *. (traced_s -. untraced_s) /. untraced_s, "%");
        ( "gc.major_collections",
          float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections),
          "count" );
      ])

let () =
  let cmd = if Array.length Sys.argv > 1 then Sys.argv.(1) else "" in
  let workload = ref "" and seed = ref 0 and dir = ref "" and size = ref "full" in
  let seconds = ref 10.0 and trace = ref 0 and chrome_trace = ref None in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "W  " ^ String.concat " | " workloads);
      ("--seed", Arg.Set_int seed, "S  workload seed (gen)");
      ("--dir", Arg.Set_string dir, "D  input directory");
      ("--size", Arg.Set_string size, "full|tiny  input size (gen)");
      ("--seconds", Arg.Set_float seconds, "N  nominal measured seconds (run)");
      ("--trace", Arg.Set_int trace, "0|1  end-to-end or traced per-layer run (run)");
      ("--chrome-trace", Arg.String (fun s -> chrome_trace := Some s), "F  traced run's Chrome trace");
    ]
  in
  let usage = "main.exe (gen|run) [options]" in
  (try Arg.parse_argv ~current:(ref 1) Sys.argv spec (fun a -> raise (Arg.Bad a)) usage with
  | Arg.Bad msg | Arg.Help msg ->
      prerr_string msg;
      exit 2);
  if not (List.mem !workload workloads) || !dir = "" then begin
    prerr_endline usage;
    exit 2
  end;
  Obs.Log.set_level Obs.Log.Warn;
  Util.Parallel.set_num_domains 1;
  match cmd with
  | "gen" -> (
      match Inputs.size_of_string !size with
      | Some size -> Inputs.generate ~size ~workload:!workload ~seed:!seed ~dir:!dir
      | None ->
          prerr_endline "--size must be full or tiny";
          exit 2)
  | "run" ->
      let json =
        if !trace = 0 then end_to_end ~workload:!workload ~dir:!dir ~seconds:!seconds
        else per_layer ~workload:!workload ~dir:!dir ~seconds:!seconds ~chrome_trace:!chrome_trace
      in
      print_endline (Obs.Json.to_string json)
  | _ ->
      prerr_endline usage;
      exit 2
