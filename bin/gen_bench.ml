(** Generate a synthetic benchmark design and write it to disk.

    Examples:
      gen_bench -d sb1 -o sb1.aux                    # Bookshelf bundle
      gen_bench -d sb1 -o sb1.def                    # DEF + sibling LEF
      gen_bench -d sb10 --scale 1.0 --no-calibrate -o big.aux
      gen_bench --cells 500000 -o scale500k.aux      # scale ladder

    The output format follows the file extension (Formats.Auto): .aux
    writes the Bookshelf bundle (.nodes/.nets/.pl/.scl/.cells), .def a
    LEF/DEF pair; any other extension is a config error (exit 2). *)

open Cmdliner

let run design scale calibrate cells out =
  Util.Errors.or_exit @@ fun () ->
  let d =
    match cells with
    | Some cells -> Workloads.Suite.load_sized ~calibrate ~cells ()
    | None -> Workloads.Suite.load ~scale ~calibrate design
  in
  Formats.Auto.save out d;
  Printf.printf "wrote %s\n" out;
  Printf.printf "design %s: %d cells, %d nets, %d pins, clock %.1f ps, die %.0fx%.0f\n"
    d.name
    (Netlist.Design.num_cells d)
    (Netlist.Design.num_nets d)
    (Netlist.Design.num_pins d)
    d.clock_period
    (Geom.Rect.width d.die) (Geom.Rect.height d.die)

let design =
  let doc = "Suite design name (sb1 sb3 sb4 sb5 sb7 sb10 sb16 sb18)." in
  Arg.(value & opt string "sb1" & info [ "d"; "design" ] ~docv:"NAME" ~doc)

let scale =
  let doc = "Size multiplier applied to all cell counts." in
  Arg.(value & opt float 0.5 & info [ "scale" ] ~docv:"S" ~doc)

let calibrate =
  let doc = "Skip clock calibration (leaves a placeholder period)." in
  Arg.(value & flag & info [ "no-calibrate" ] ~doc)

let out =
  let doc = "Output file: .aux (Bookshelf bundle) or .def (DEF plus sibling LEF)." in
  Arg.(required & opt (some string) None & info [ "o"; "out" ] ~docv:"FILE" ~doc)

let cells =
  let doc =
    "Generate a scale-ladder design with roughly this many cells instead of a suite design \
     (overrides --design/--scale; calibration defaults off at this size — pass sizes like \
     100000..1000000)."
  in
  Arg.(value & opt (some int) None & info [ "cells" ] ~docv:"N" ~doc)

let cmd =
  let doc = "generate an ICCAD2015-like synthetic benchmark" in
  Cmd.v
    (Cmd.info "gen_bench" ~doc)
    Term.(const (fun d s nc c o -> run d s (not nc) c o) $ design $ scale $ calibrate $ cells $ out)

let () = exit (Cmd.eval cmd)
