(** Static timing analysis walkthrough on a hand-built circuit: arrivals,
    required times, slacks, and the two critical-path extraction commands.

    Run with: dune exec examples/sta_tutorial.exe *)

open Netlist

let pin_label (d : Design.t) pid =
  Printf.sprintf "%s.%s" (Design.cell_name d d.pin_owner.(pid)) (Design.pin_name d pid)

let () =
  (* Reconvergent circuit: two paths from the input merge at a NAND.
     The branch through ub is routed much further, so it is critical. *)
  let die = Geom.Rect.make ~xl:0.0 ~yl:0.0 ~xh:100.0 ~yh:100.0 in
  let b =
    Builder.create ~name:"tutorial" ~die ~row_height:1.0 ~clock_period:260.0 ~r_per_unit:0.1
      ~c_per_unit:0.2
  in
  let inv = Libcell.find_in_library "INV_X1" in
  let nand = Libcell.find_in_library "NAND2_X1" in
  let pi = Builder.add_input_pad b ~cname:"pi" ~x:0.0 ~y:50.0 in
  let ua = Builder.add_logic b ~cname:"ua" ~lib:inv ~x:40.0 ~y:52.0 () in
  let ub = Builder.add_logic b ~cname:"ub" ~lib:inv ~x:40.0 ~y:95.0 () in
  let um = Builder.add_logic b ~cname:"um" ~lib:nand ~x:60.0 ~y:50.0 () in
  let po = Builder.add_output_pad b ~cname:"po" ~x:100.0 ~y:50.0 in
  let wire name pins =
    let n = Builder.add_net b ~nname:name in
    List.iter (fun (cell, pin_name) -> Builder.connect_by_name b ~net:n ~cell ~pin_name) pins
  in
  wire "n0" [ (pi, "p"); (ua, "a1"); (ub, "a1") ];
  wire "na" [ (ua, "o"); (um, "a1") ];
  wire "nb" [ (ub, "o"); (um, "a2") ];
  wire "no" [ (um, "o"); (po, "p") ];
  let d = Builder.finish b in

  let timer = Sta.Timer.create d in
  Sta.Timer.update timer;
  let g = Sta.Timer.graph timer in
  let arr = Sta.Timer.arrivals timer in
  let slack = Sta.Timer.slacks timer in

  Printf.printf "=== pin-by-pin timing (clock %.0f ps) ===\n" d.clock_period;
  Array.iter
    (fun p ->
      if Float.is_finite arr.(p) then
        Printf.printf "  %-10s arrival %8.2f ps   slack %8.2f ps%s%s\n" (pin_label d p) arr.(p)
          slack.(p)
          (if g.Sta.Graph.is_startpoint.(p) then "   [startpoint]" else "")
          (if g.Sta.Graph.is_endpoint.(p) then "   [endpoint]" else ""))
    g.Sta.Graph.topo;

  Printf.printf "\nWNS = %.2f ps, TNS = %.2f ps\n" (Sta.Timer.wns timer) (Sta.Timer.tns timer);

  Printf.printf "\n=== the two worst paths into the output (k-worst enumeration) ===\n";
  let ep = g.Sta.Graph.endpoints.(0) in
  List.iteri
    (fun i (p : Sta.Paths.path) ->
      Printf.printf "path %d: arrival %.2f ps, slack %.2f ps\n  %s\n" i p.arrival p.slack
        (String.concat " -> " (Array.to_list (Array.map (pin_label d) p.pins))))
    (Sta.Timer.k_worst timer ~endpoint:ep ~k:2);

  Printf.printf "\n=== moving ub close to the merge point re-times the circuit ===\n";
  d.x.{ub} <- 55.0;
  d.y.{ub} <- 52.0;
  Sta.Timer.invalidate timer;
  Sta.Timer.update timer;
  Printf.printf "after the move: WNS = %.2f ps (was driven by the long ub branch)\n"
    (Sta.Timer.wns timer);
  match Sta.Timer.critical_path timer with
  | Some p ->
      Printf.printf "new critical path: %s\n"
        (String.concat " -> " (Array.to_list (Array.map (pin_label d) p.pins)))
  | None -> ()
