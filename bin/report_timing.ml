(** Static timing report for a placed design: endpoint slack summary and
    critical paths via both extraction commands.

    Examples:
      report_timing --design-file placed.def -n 10
      report_timing --design-file design.aux --run-gp -n 5
      report_timing -d sb18 --run-gp -n 5 -k 2

    Design files load through Formats.Auto (.aux or .def); a malformed
    file exits 6 with kind parse_error, like bin/place. *)

open Cmdliner

let pin_label (d : Netlist.Design.t) pid =
  Printf.sprintf "%s.%s"
    (Netlist.Design.cell_name d d.Netlist.Design.pin_owner.(pid))
    (Netlist.Design.pin_name d pid)

let print_path (g : Sta.Graph.t) i (p : Sta.Paths.path) =
  Printf.printf "-- path %d --\n" i;
  Format.printf "%a@." (fun fmt p -> Sta.Report.pp_path fmt g p) p

let run design file lef scale run_gp n k =
  Util.Errors.or_exit @@ fun () ->
  let d =
    match file with
    | Some path -> Formats.Auto.load ?lef path
    | None ->
        if lef <> None then Util.Errors.config_error ~what:"lef" "--lef needs --design-file";
        Workloads.Suite.load ~scale design
  in
  if run_gp then ignore (Gp.Globalplace.run d);
  let timer = Sta.Timer.create d in
  Sta.Timer.update timer;
  let g = Sta.Timer.graph timer in
  Printf.printf "design %s: clock %.1f ps, %d endpoints\n" d.name d.clock_period
    (Array.length g.Sta.Graph.endpoints);
  Printf.printf "WNS %.1f ps   TNS %.1f ps   failing endpoints %d\n\n" (Sta.Timer.wns timer)
    (Sta.Timer.tns timer)
    (Sta.Timer.num_failing_endpoints timer);
  Printf.printf "worst %d endpoints:\n" n;
  List.iteri
    (fun i e ->
      if i < n then
        Printf.printf "  %-24s slack %10.1f ps\n" (pin_label d e)
          (Sta.Timer.endpoint_slack timer e))
    (Sta.Timer.failing_endpoints timer
    @ List.filter
        (fun e -> Sta.Timer.endpoint_slack timer e >= 0.0)
        (Array.to_list g.Sta.Graph.endpoints));
  Printf.printf "\nhold summary: WHS %.1f ps, THS %.1f ps, %d violations\n"
    (Sta.Timer.whs timer) (Sta.Timer.ths timer)
    (List.length (Sta.Timer.hold_violations timer));
  Printf.printf "\nreport_timing_endpoint(%d, %d):\n" n k;
  List.iteri (print_path g) (Sta.Timer.report_timing_endpoint timer ~n ~k ~failing_only:false);
  Printf.printf "\nreport_timing(%d) [global top-n]:\n" n;
  List.iteri (print_path g) (Sta.Timer.report_timing timer ~n ~failing_only:false)

let design = Arg.(value & opt string "sb18" & info [ "d"; "design" ] ~docv:"NAME" ~doc:"Suite design name.")

let file =
  Arg.(value & opt (some string) None
       & info [ "design-file" ] ~docv:"FILE" ~doc:"Load a design file (.aux or .def).")

let lef =
  Arg.(value & opt (some string) None
       & info [ "lef" ] ~docv:"LEF" ~doc:"Macro library for a .def design file.")

let scale = Arg.(value & opt float 0.5 & info [ "scale" ] ~docv:"S" ~doc:"Generator size multiplier.")

let run_gp = Arg.(value & flag & info [ "run-gp" ] ~doc:"Run vanilla global placement first.")

let n = Arg.(value & opt int 5 & info [ "n" ] ~docv:"N" ~doc:"Endpoints to report.")

let k = Arg.(value & opt int 1 & info [ "k" ] ~docv:"K" ~doc:"Paths per endpoint.")

let cmd =
  let doc = "static timing report with critical path extraction" in
  Cmd.v (Cmd.info "report_timing" ~doc)
    Term.(const run $ design $ file $ lef $ scale $ run_gp $ n $ k)

let () = exit (Cmd.eval cmd)
