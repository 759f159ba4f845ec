(** Netlist statistics: size, fanout distribution, timing-graph depth,
    wire parasitics — the numbers DESIGN.md's generator claims are
    checked against.

    Examples:
      design_stats -d sb1 --scale 0.5
      design_stats --design-file sb1.aux

    Design files load through Formats.Auto (.aux or .def); a malformed
    file exits 6 with kind parse_error, like bin/place. *)

open Cmdliner
open Netlist

let histogram values ~buckets =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun v ->
      let b = buckets v in
      Hashtbl.replace tbl b (1 + (try Hashtbl.find tbl b with Not_found -> 0)))
    values;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] |> List.sort compare

let run design file lef scale =
  Util.Errors.or_exit @@ fun () ->
  let d =
    match file with
    | Some path -> Formats.Auto.load ?lef path
    | None ->
        if lef <> None then Util.Errors.config_error ~what:"lef" "--lef needs --design-file";
        Workloads.Suite.load ~scale ~calibrate:false design
  in
  Printf.printf "design %s\n" d.name;
  Printf.printf "  die          %.0f x %.0f sites, utilization %.2f\n"
    (Geom.Rect.width d.die) (Geom.Rect.height d.die)
    (Design.movable_area d /. Geom.Rect.area d.die);
  let count pred =
    let n = ref 0 in
    for i = 0 to Design.num_cells d - 1 do
      if pred i then incr n
    done;
    !n
  in
  Printf.printf "  cells        %d total: %d comb, %d ff, %d pads, %d macros\n"
    (Design.num_cells d)
    (count (fun i -> Design.kind d i = Design.Logic && not (Design.is_ff d i)))
    (count (Design.is_ff d))
    (count (fun i ->
         match Design.kind d i with Design.Input_pad | Design.Output_pad -> true | _ -> false))
    (count (fun i -> Design.kind d i = Design.Blockage));
  Printf.printf "  nets         %d, pins %d\n" (Design.num_nets d) (Design.num_pins d);
  Printf.printf "  wire r/c     %.3f kOhm/site, %.3f fF/site\n" d.r_per_unit d.c_per_unit;
  (* Memory footprint of the SoA database, by field group. *)
  let fp = Design.footprint d in
  let mib b = float_of_int b /. (1024.0 *. 1024.0) in
  Printf.printf "  memory       %.2f MiB total, %.1f words/cell\n" (mib fp.Design.total_bytes)
    (float_of_int fp.Design.total_bytes /. 8.0 /. float_of_int (max 1 (Design.num_cells d)));
  Printf.printf "    cell fields      %9d bytes\n" fp.Design.cell_bytes;
  Printf.printf "    pin fields       %9d bytes\n" fp.Design.pin_bytes;
  Printf.printf "    net fields       %9d bytes\n" fp.Design.net_bytes;
  Printf.printf "    CSR adjacency    %9d bytes\n" fp.Design.adjacency_bytes;
  Printf.printf "    name tables      %9d bytes\n" fp.Design.name_bytes;
  (* Fanout distribution. *)
  let fanouts = List.init (Design.num_nets d) (fun nid -> Design.net_num_sinks d nid) in
  let fo_arr = Array.of_list (List.map float_of_int fanouts) in
  Printf.printf "  fanout       mean %.2f, p50 %.0f, p95 %.0f, max %.0f\n"
    (Util.Stats.mean fo_arr) (Util.Stats.median fo_arr) (Util.Stats.percentile fo_arr 95.0)
    (Util.Stats.max_elt fo_arr);
  Printf.printf "  fanout histogram (bucket -> nets):\n";
  List.iter
    (fun (b, n) -> Printf.printf "    %4s: %d\n" b n)
    (histogram fanouts ~buckets:(fun f ->
         if f <= 1 then "1" else if f <= 2 then "2" else if f <= 4 then "3-4"
         else if f <= 8 then "5-8" else if f <= 16 then "9-16" else ">16"));
  (* Timing graph shape. *)
  let g = Sta.Graph.build d in
  (* The propagation levels bucket pins by logic depth. *)
  let levels = (Sta.Propagate.create ~par:(Util.Parallel.create 1) g).Sta.Propagate.levels in
  Printf.printf "  timing graph %d arcs, %d endpoints, max logic depth %d pins\n"
    g.Sta.Graph.num_arcs
    (Array.length g.Sta.Graph.endpoints)
    (Array.length levels - 1);
  if d.clock_period < 1e8 then Printf.printf "  clock        %.1f ps\n" d.clock_period
  else Printf.printf "  clock        (uncalibrated)\n"

let design = Arg.(value & opt string "sb1" & info [ "d"; "design" ] ~docv:"NAME" ~doc:"Suite design name.")

let file =
  Arg.(value & opt (some string) None
       & info [ "design-file" ] ~docv:"FILE" ~doc:"Load a design file (.aux or .def).")

let lef =
  Arg.(value & opt (some string) None
       & info [ "lef" ] ~docv:"LEF" ~doc:"Macro library for a .def design file.")

let scale = Arg.(value & opt float 0.5 & info [ "scale" ] ~docv:"S" ~doc:"Generator size multiplier.")

let cmd =
  let doc = "print netlist statistics for a design" in
  Cmd.v (Cmd.info "design_stats" ~doc) Term.(const run $ design $ file $ lef $ scale)

let () = exit (Cmd.eval cmd)
