(** Run a placement flow on a design and report contest metrics.

    Examples:
      place -d sb18 --flow efficient
      place --design-file design.aux --flow dp4 --out placed.pl
      place --lef tech.lef --design-file design.def --wire-rc 0.06,0.5 --out placed.def
      place --design-file design.aux --out placed.def --out placed.pl
      place -d sb4 --flow efficient --loss linear --paths-per-endpoint 10
      place -d sb4 --flow efficient --trace-out run.jsonl --report-json report.json
      place -d sb4 --heartbeat-out hb.jsonl --heartbeat-every 10

    Reporting goes through Obs.Log (level from OBS_LEVEL or --log-level);
    --trace-out streams the full span tree plus the final metric snapshot
    as JSONL (summarise with trace_report; export Chrome-trace/flamegraph
    views with trace_report --chrome-trace / --flamegraph), --report-json
    writes the structured result (with an "error" object instead of
    metrics when the run fails), --heartbeat-out streams periodic
    progress records (overflow, HPWL, TNS/WNS trend, guard counters,
    extraction stats) as JSONL while the placement runs.

    Exit codes: 0 success, 2 config error, 3 invalid design, 4 diverged
    (rollback budget exhausted), 5 legalization infeasible, 6 parse
    error in a foreign input file (the --report-json "error" object
    carries kind "parse_error" with file/line/detail fields); 1 is
    reserved for unexpected exceptions, 124/125 for cmdliner usage
    errors. *)

open Cmdliner

let parse_loss = function
  | "quadratic" -> Tdp.Config.Quadratic
  | "linear" -> Tdp.Config.Linear
  | "hpwl" -> Tdp.Config.Hpwl_like
  | s -> Util.Errors.config_error ~what:"loss" ("unknown loss " ^ s ^ " (known: quadratic linear hpwl)")

let make_method flow loss k =
  let config =
    { Tdp.Config.default with loss = parse_loss loss; extraction = Tdp.Config.Endpoint_based { k } }
  in
  Tdp.Flow.method_of_string ~config flow

let error_to_json e =
  Obs.Json.Obj
    (("kind", Obs.Json.String (Util.Errors.kind e))
    :: ("message", Obs.Json.String (Util.Errors.message e))
    :: List.map (fun (k, v) -> (k, Obs.Json.String v)) (Util.Errors.fields e))

(* On failure the report is still written (when requested): an [error]
   object plus whatever metrics had accumulated — so a harness can see
   e.g. guard.nan_detected / guard.rollbacks counts of a diverged run. *)
let write_error_report path ctx e =
  let report =
    Obs.Json.Obj
      [ ("error", error_to_json e); ("metrics_registry", Obs.Ctx.metrics_json ctx) ]
  in
  let oc = open_out path in
  output_string oc (Obs.Json.to_string report);
  output_char oc '\n';
  close_out oc;
  Obs.Log.info "wrote structured report to %s" path

let run design file lef wire_rc clock scale flow loss k domains fault_inject outs curve
    trace_out report_json heartbeat_out heartbeat_every log_level =
  (match log_level with Some l -> Obs.Log.set_level l | None -> ());
  let sinks = match trace_out with Some path -> [ Obs.Sink.jsonl path ] | None -> [] in
  let ctx = Obs.Ctx.create ~sinks () in
  (* Only the trace and the report read the par.* metrics. *)
  let instrument =
    if trace_out = None && report_json = None then None else Some (Obs.Resource.parallel_hook ctx)
  in
  let par = Util.Parallel.create ?instrument domains in
  Obs.Log.info "parallel: %d domain(s)" (Util.Parallel.domains par);
  let heartbeat, heartbeat_close =
    match heartbeat_out with
    | Some path ->
        let emit, close = Obs.Heartbeat.jsonl_emitter path in
        (Some (Obs.Heartbeat.create ~every_iters:heartbeat_every ~emit ctx), close)
    | None -> (None, fun () -> ())
  in
  let on_error e =
    Obs.Log.error "%s" (Util.Errors.message e);
    (match report_json with Some path -> write_error_report path ctx e | None -> ());
    heartbeat_close ();
    Obs.Ctx.close ctx;
    exit (Util.Errors.exit_code e)
  in
  try
  (* The run's fault plan (robustness tests; syntax in [Util.Fault]). *)
  let fault =
    match fault_inject with
    | None -> []
    | Some spec -> (
        match Util.Fault.parse spec with
        | Ok plan -> Obs.Log.warn "fault injection active: %s" spec; plan
        | Error msg -> Util.Errors.config_error ~what:"fault-inject" msg)
  in
  let wire_rc =
    match wire_rc with
    | None -> None
    | Some s -> (
        match Rctree.Wire_rc.parse s with
        | Ok rc -> Some rc
        | Error msg -> Util.Errors.config_error ~what:"wire-rc" msg)
  in
  List.iter Formats.Auto.check_save outs;
  (* Design files dispatch on their extension through Formats.Auto. A
     malformed file is its own failure kind (exit 6, kind "parse_error"
     in the report), not an [Invalid_design]: the bytes never became a
     design, and harnesses distinguish "fix the file syntax" from "fix
     the netlist". *)
  let d =
    match file with
    | Some path -> Formats.Auto.load ?lef ?wire_rc ?clock path
    | None ->
        if lef <> None then
          Util.Errors.config_error ~what:"lef" "--lef needs --design-file";
        let d = Workloads.Suite.load ~scale design in
        (match wire_rc with
        | Some rc ->
            d.Netlist.Design.r_per_unit <- rc.Rctree.Wire_rc.r_per_unit;
            d.Netlist.Design.c_per_unit <- rc.Rctree.Wire_rc.c_per_unit
        | None -> ());
        (match clock with Some c -> d.Netlist.Design.clock_period <- c | None -> ());
        d
  in
  Obs.Log.info "design %s: %d cells, %d nets, clock %.1f ps" d.name
    (Netlist.Design.num_cells d) (Netlist.Design.num_nets d) d.clock_period;
  let meth = make_method flow loss k in
  Obs.Log.info "flow: %s" (Tdp.Flow.method_name meth);
  let r = Tdp.Flow.run ~par ~obs:ctx ?heartbeat ~fault meth d in
  Obs.Log.info "global placement  : %s" (Format.asprintf "%a" Evalkit.Metrics.pp r.metrics_gp);
  Obs.Log.info "after legalization: %s" (Format.asprintf "%a" Evalkit.Metrics.pp r.metrics);
  Obs.Log.info "runtime: %.2f s" r.runtime;
  Obs.Log.info "breakdown:";
  List.iter (fun (n, s) -> Obs.Log.info "  %-16s %8.3f s" n s) r.breakdown;
  Obs.Log.info "resource: peak RSS %.1f MB, %.1fM minor words, %d major GCs"
    (float_of_int r.resource.Obs.Resource.peak_rss_bytes /. 1048576.0)
    (r.resource.Obs.Resource.d_minor_words /. 1e6)
    r.resource.Obs.Resource.d_major_collections;
  if curve then begin
    Obs.Log.info "timing-phase curve (iter hpwl overflow tns wns):";
    List.iter
      (fun (c : Tdp.Flow.curve_point) ->
        Obs.Log.info "  %4d %12.1f %6.3f %12.1f %10.1f" c.iter c.hpwl c.overflow c.tns c.wns)
      r.curve
  end;
  (match report_json with
  | Some path ->
      let report =
        match Tdp.Flow.result_to_json r with
        | Obs.Json.Obj fields ->
            Obs.Json.Obj
              (fields
              @ [ ("error", Obs.Json.Null); ("metrics_registry", Obs.Ctx.metrics_json ctx) ])
        | j -> j
      in
      let oc = open_out path in
      output_string oc (Obs.Json.to_string report);
      output_char oc '\n';
      close_out oc;
      Obs.Log.info "wrote structured report to %s" path
  | None -> ());
  heartbeat_close ();
  (match heartbeat_out with
  | Some path -> Obs.Log.info "wrote heartbeats to %s" path
  | None -> ());
  (* Flushes the metric snapshot into the trace and closes the file. *)
  Obs.Ctx.close ctx;
  (match trace_out with
  | Some path -> Obs.Log.info "wrote trace to %s (summarise with: trace_report %s)" path path
  | None -> ());
  List.iter
    (fun path ->
      Formats.Auto.save path d;
      Obs.Log.info "wrote placed design to %s" path)
    outs
  with Util.Errors.Error e -> on_error e

let design = Arg.(value & opt string "sb18" & info [ "d"; "design" ] ~docv:"NAME" ~doc:"Suite design name.")

let file =
  Arg.(value & opt (some string) None
       & info [ "design-file" ] ~docv:"FILE"
           ~doc:"Load a design file instead of generating: a Bookshelf .aux (ICCAD-2015 \
                 dialect) or a DEF (COMPONENTS/PINS/NETS/DIEAREA/ROW).")

let lef =
  Arg.(value & opt (some string) None
       & info [ "lef" ] ~docv:"LEF"
           ~doc:"Macro library (MACRO/PIN geometry) for a .def design file; defaults to the \
                 DEF's sibling .lef when one exists.")

let wire_rc =
  Arg.(value & opt (some string) None
       & info [ "wire-rc" ] ~docv:"RES,CAP"
           ~doc:"Per-unit wire parasitics (kOhm,fF per site) for foreign designs — the \
                 set_wire_rc step feeding the Elmore model.")

let clock =
  Arg.(value & opt (some float) None
       & info [ "clock" ] ~docv:"PS" ~doc:"Override the clock period (ps).")

let scale = Arg.(value & opt float 0.5 & info [ "scale" ] ~docv:"S" ~doc:"Generator size multiplier.")

let flow =
  Arg.(value & opt string "efficient"
       & info [ "flow" ] ~docv:"FLOW" ~doc:"vanilla | dp4 | diff | dist | efficient | noextract.")

let loss =
  Arg.(value & opt string "quadratic" & info [ "loss" ] ~docv:"LOSS" ~doc:"quadratic | linear | hpwl.")

let k =
  Arg.(value & opt int 1 & info [ "paths-per-endpoint" ] ~docv:"K" ~doc:"Critical paths per endpoint.")

let domains =
  Arg.(value & opt int 1
       & info [ "domains" ] ~docv:"N"
           ~doc:"Parallel domains for the hot kernels (1 = sequential; results are \
                 deterministic per fixed N).")

let fault_inject =
  Arg.(value & opt (some string) None
       & info [ "fault-inject" ] ~docv:"SPEC"
           ~doc:"Robustness-test fault injection: site=kind@start[+count],... with site in \
                 {wl_grad, elmore} and kind in {nan, inf, -inf, huge}; each site at most \
                 once. The report's fault.<site> counters give the corrupted calls.")

let outs =
  Arg.(value & opt_all string []
       & info [ "o"; "out" ] ~docv:"FILE"
           ~doc:"Save the placed design; the extension picks the format: .def (DEF plus a \
                 sibling .lef), .aux (Bookshelf bundle) or .pl (placement only). Repeatable.")

let curve = Arg.(value & flag & info [ "curve" ] ~doc:"Print the timing-phase metric curve.")

let trace_out =
  Arg.(value & opt (some string) None
       & info [ "trace-out" ] ~docv:"FILE" ~doc:"Write the span/metric trace as JSONL.")

let report_json =
  Arg.(value & opt (some string) None
       & info [ "report-json" ] ~docv:"FILE" ~doc:"Write the structured run report as JSON.")

let heartbeat_out =
  Arg.(value & opt (some string) None
       & info [ "heartbeat-out" ] ~docv:"FILE"
           ~doc:"Stream periodic progress records (JSONL) while placing.")

let heartbeat_every =
  Arg.(value & opt int 25
       & info [ "heartbeat-every" ] ~docv:"N" ~doc:"Heartbeat cadence in placement iterations.")

let log_level =
  let levels =
    List.map (fun l -> (Obs.Log.to_string l, l)) Obs.Log.[ Quiet; Error; Warn; Info; Debug ]
  in
  Arg.(value & opt (some (enum levels)) None
       & info [ "log-level" ] ~docv:"LEVEL"
           ~doc:"quiet | error | warn | info | debug (default: \\$OBS_LEVEL or info).")

let cmd =
  let doc = "timing-driven global placement (Efficient-TDP and baselines)" in
  Cmd.v (Cmd.info "place" ~doc)
    Term.(
      const run $ design $ file $ lef $ wire_rc $ clock $ scale $ flow $ loss $ k $ domains
      $ fault_inject $ outs $ curve $ trace_out $ report_json $ heartbeat_out
      $ heartbeat_every $ log_level)

let () = exit (Cmd.eval cmd)
