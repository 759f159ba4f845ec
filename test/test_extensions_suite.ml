(* Tests for the extension features: hold (early) analysis, wire-segment
   statistics, and timing-aware detailed placement on the incremental
   timer. *)

open Netlist

let check_float = Alcotest.(check (float 1e-6))

(* ---------------- Hold / early analysis ---------------- *)

let test_early_le_late () =
  let d = Helpers.small_calibrated () in
  let rng = Util.Rng.create 21 in
  for id = 0 to Design.num_cells d - 1 do
    if Design.is_movable d id then begin
      d.x.{id} <- Util.Rng.float rng (Geom.Rect.width d.die);
      d.y.{id} <- Util.Rng.float rng (Geom.Rect.height d.die)
    end
  done;
  let timer = Sta.Timer.create d in
  Sta.Timer.update timer;
  let late = Sta.Timer.arrivals timer in
  let early = Sta.Timer.early_arrivals timer in
  Array.iteri
    (fun p a_late ->
      if Float.is_finite a_late && Float.is_finite early.(p) then
        Alcotest.(check bool) "early <= late" true (early.(p) <= a_late +. 1e-9))
    late

let test_hold_chain_exact () =
  (* Chain design: the only FF D pin's early arrival equals its late
     arrival (single path), so hold slack = arrival - hold. *)
  let d = Helpers.chain_design () in
  let timer = Sta.Timer.create d in
  Sta.Timer.update timer;
  let g = Sta.Timer.graph timer in
  let dpin =
    Array.to_list (Design.cell_pins d 2) |> List.find (fun p -> Design.pin_name d p = "d")
  in
  let early = Sta.Timer.early_arrivals timer in
  check_float "single path: early = late" (Sta.Timer.arrivals timer).(dpin) early.(dpin);
  (* DFF hold = 5.0; arrival ~136 ps >> 5 ps, so no violation. *)
  check_float "whs zero" 0.0 (Sta.Timer.whs timer);
  check_float "ths zero" 0.0 (Sta.Timer.ths timer);
  Alcotest.(check (list int)) "no violations" [] (Sta.Timer.hold_violations timer);
  ignore g

let test_hold_violation_constructed () =
  (* An FF fed directly by another FF's Q through a very short wire with a
     huge hold requirement must violate hold. *)
  let b = Helpers.fresh_builder () in
  let big_hold_ff =
    Libcell.make_ff ~hold:100.0 ~lname:"DFFH" ~width:4.0 ~drive_res:8.0 ~clk_to_q:30.0
      ~setup:25.0 ~d_cap:1.6 ()
  in
  let ff1 = Builder.add_logic b ~cname:"ff1" ~lib:Libcell.dff ~x:50.0 ~y:50.0 () in
  let ff2 = Builder.add_logic b ~cname:"ff2" ~lib:big_hold_ff ~x:54.0 ~y:50.0 () in
  let po = Builder.add_output_pad b ~cname:"po" ~x:100.0 ~y:50.0 in
  let n1 = Builder.add_net b ~nname:"n1" in
  Builder.connect_by_name b ~net:n1 ~cell:ff1 ~pin_name:"q";
  Builder.connect_by_name b ~net:n1 ~cell:ff2 ~pin_name:"d";
  let n2 = Builder.add_net b ~nname:"n2" in
  Builder.connect_by_name b ~net:n2 ~cell:ff2 ~pin_name:"q";
  Builder.connect_by_name b ~net:n2 ~cell:po ~pin_name:"p";
  let d = Builder.finish b in
  let timer = Sta.Timer.create d in
  Sta.Timer.update timer;
  Alcotest.(check bool) "hold violated" true (Sta.Timer.whs timer < 0.0);
  Alcotest.(check int) "one violation" 1 (List.length (Sta.Timer.hold_violations timer));
  Alcotest.(check bool) "ths <= whs" true (Sta.Timer.ths timer <= Sta.Timer.whs timer)

let test_hold_diamond_early_branch () =
  (* Diamond: early arrival at the endpoint follows the FAST branch
     (through ua), late follows the slow one — they must differ. *)
  let d = Helpers.diamond_design () in
  let timer = Sta.Timer.create d in
  Sta.Timer.update timer;
  let g = Sta.Timer.graph timer in
  let ep = g.Sta.Graph.endpoints.(0) in
  let early = Sta.Timer.early_arrivals timer in
  Alcotest.(check bool) "early < late at reconvergence" true
    (early.(ep) < (Sta.Timer.arrivals timer).(ep) -. 1.0)

(* ---------------- Wire stats ---------------- *)

let test_wire_stats_of_segments () =
  let s = Evalkit.Wire_stats.of_segments ~buffer_threshold:10.0 [ 5.0; 15.0; 20.0 ] in
  Alcotest.(check int) "segments" 3 s.num_segments;
  check_float "total" 40.0 s.total_length;
  check_float "max" 20.0 s.max_length;
  Alcotest.(check int) "buffer candidates" 2 s.buffer_candidates;
  let empty = Evalkit.Wire_stats.of_segments [] in
  Alcotest.(check int) "empty" 0 empty.num_segments

(* The endpoint set, not the failing count, fixes what is scored: the
   clock enters only endpoint required times, so a loose clock (nothing
   fails) and a tight one (most fail) score the same worst paths. *)
let test_wire_stats_critical_paths () =
  let d = Helpers.small_calibrated () in
  let rng = Util.Rng.create 6 in
  for id = 0 to Design.num_cells d - 1 do
    if Design.is_movable d id then begin
      d.x.{id} <- Util.Rng.float rng (Geom.Rect.width d.die);
      d.y.{id} <- Util.Rng.float rng (Geom.Rect.height d.die)
    end
  done;
  let timer = Sta.Timer.create d in
  let all = (Sta.Timer.graph timer).Sta.Graph.endpoints in
  let endpoints = Array.to_list (Array.sub all 0 10) in
  let score_at period =
    Sta.Timer.set_clock timer period;
    (Sta.Timer.num_failing_endpoints timer, Evalkit.Wire_stats.of_endpoints timer ~endpoints)
  in
  let base = d.clock_period in
  let loose_failing, loose = score_at (base *. 100.0) in
  let tight_failing, tight = score_at (base *. 0.3) in
  Alcotest.(check int) "loose clock: none failing" 0 loose_failing;
  Alcotest.(check bool)
    (Printf.sprintf "tight clock: most failing (%d of %d)" tight_failing (Array.length all))
    true
    (2 * tight_failing > Array.length all);
  Alcotest.(check bool) "segments found" true (loose.num_segments > 0);
  Alcotest.(check bool) "same stats at both clocks" true (loose = tight);
  Alcotest.(check bool) "mean <= max" true (loose.mean_length <= loose.max_length +. 1e-9)

(* ---------------- Timing-aware detailed placement ---------------- *)

let test_timing_dp_never_degrades () =
  let d = Helpers.small_calibrated () in
  ignore (Gp.Globalplace.run ~params:{ Gp.Globalplace.default_params with max_iters = 200 } d);
  ignore (Gp.Legalize.run d);
  let s = Tdp.Timing_dp.run ~max_endpoints:10 ~window:6.0 (Sta.Timer.create d) in
  Alcotest.(check bool)
    (Printf.sprintf "tns %.1f -> %.1f" s.tns_before s.tns_after)
    true
    (s.tns_after >= s.tns_before -. 1e-6);
  Alcotest.(check bool) "still legal" true (Gp.Legalize.is_legal d);
  Alcotest.(check bool) "accepted <= candidates" true (s.accepted <= s.candidates);
  (* The independent evaluator agrees with the internal timer. *)
  let m = Evalkit.Metrics.evaluate d in
  Alcotest.(check bool) "evaluator agrees" true (Float.abs (m.tns -. s.tns_after) < 1e-6)

(* ---------------- IO delay constraints ---------------- *)

let test_io_delays_shift_timing () =
  let d = Helpers.chain_design () in
  let timer0 = Sta.Timer.create d in
  Sta.Timer.update timer0;
  let g0 = Sta.Timer.graph timer0 in
  let po_pin = (Design.cell_pins d 4).(0) in
  let base_slack = Sta.Timer.endpoint_slack timer0 po_pin in
  ignore g0;
  (* input delay shifts arrivals on PI-fed cones; output delay tightens
     the PO requirement — both reduce the PO slack additively. *)
  d.input_delay <- 40.0;
  d.output_delay <- 25.0;
  let timer = Sta.Timer.create d in
  Sta.Timer.update timer;
  let s = Sta.Timer.endpoint_slack timer po_pin in
  (* PO path launches from the FF (not the PI), so only output_delay
     applies to it. *)
  check_float "output delay tightens PO" (base_slack -. 25.0) s;
  (* The FF D endpoint is fed from the PI: input delay applies. *)
  let dpin =
    Array.to_list (Design.cell_pins d 2) |> List.find (fun p -> Design.pin_name d p = "d")
  in
  d.input_delay <- 0.0;
  d.output_delay <- 0.0;
  let t2 = Sta.Timer.create d in
  Sta.Timer.update t2;
  let slack_no_delay = Sta.Timer.endpoint_slack t2 dpin in
  d.input_delay <- 40.0;
  let t3 = Sta.Timer.create d in
  Sta.Timer.update t3;
  check_float "input delay shifts D slack" (slack_no_delay -. 40.0)
    (Sta.Timer.endpoint_slack t3 dpin);
  d.input_delay <- 0.0

let test_io_delays_roundtrip () =
  let d = Helpers.chain_design () in
  d.input_delay <- 12.5;
  d.output_delay <- 7.25;
  List.iter
    (fun file ->
      let d2 = Helpers.with_saved ~file d Formats.Auto.load in
      check_float (file ^ " input delay") 12.5 d2.input_delay;
      check_float (file ^ " output delay") 7.25 d2.output_delay)
    [ "d.aux"; "d.def" ]

let test_pp_path_report () =
  let d = Helpers.chain_design () in
  let timer = Sta.Timer.create d in
  Sta.Timer.update timer;
  match Sta.Timer.critical_path timer with
  | None -> Alcotest.fail "no path"
  | Some p ->
      let s =
        Format.asprintf "%a" (fun fmt p -> Sta.Report.pp_path fmt (Sta.Timer.graph timer) p) p
      in
      Alcotest.(check bool) "mentions startpoint" true (Helpers.contains ~sub:"Startpoint" s);
      Alcotest.(check bool) "mentions slack" true (Helpers.contains ~sub:"slack" s)

(* ---------------- Row reordering ---------------- *)

let test_reorder_rows_legal_and_improving () =
  let d = Helpers.small_calibrated () in
  ignore (Gp.Globalplace.run ~params:{ Gp.Globalplace.default_params with max_iters = 150 } d);
  ignore (Gp.Legalize.run d);
  let before = Design.total_hpwl d in
  let improved = Gp.Detailed.reorder_rows d in
  let after = Design.total_hpwl d in
  Alcotest.(check bool) "hpwl not worse" true (after <= before +. 1e-6);
  Alcotest.(check bool) "still legal" true (Gp.Legalize.is_legal d);
  Alcotest.(check bool) "some windows improved" true (improved >= 0)

(* ---------------- SA refinement ---------------- *)

let test_sa_refine_never_regresses_cost () =
  let d = Helpers.small_calibrated () in
  ignore (Gp.Globalplace.run ~params:{ Gp.Globalplace.default_params with max_iters = 150 } d);
  ignore (Gp.Legalize.run d);
  let s = Tdp.Sa_refine.run ~moves:600 (Sta.Timer.create d) in
  let cost tns hpwl = -.tns +. (0.5 *. hpwl) in
  Alcotest.(check bool)
    (Printf.sprintf "cost %.0f -> %.0f" (cost s.tns_before s.hpwl_before)
       (cost s.tns_after s.hpwl_after))
    true
    (cost s.tns_after s.hpwl_after <= cost s.tns_before s.hpwl_before +. 1e-6);
  Alcotest.(check bool) "legal after SA" true (Gp.Legalize.is_legal d);
  Alcotest.(check bool) "moves made" true (s.moves > 0)

let test_sa_refine_deterministic () =
  let run_once () =
    let d = Helpers.small_calibrated () in
    ignore (Gp.Globalplace.run ~params:{ Gp.Globalplace.default_params with max_iters = 150 } d);
    ignore (Gp.Legalize.run d);
    let s = Tdp.Sa_refine.run ~moves:300 (Sta.Timer.create d) in
    (s.accepted, s.tns_after)
  in
  let a1, t1 = run_once () in
  let a2, t2 = run_once () in
  Alcotest.(check int) "same accepts" a1 a2;
  check_float "same tns" t1 t2

(* ---------------- DRV checks ---------------- *)

let test_drv_checks () =
  let d = Helpers.small_calibrated () in
  let rng = Util.Rng.create 61 in
  for id = 0 to Design.num_cells d - 1 do
    if Design.is_movable d id then begin
      d.x.{id} <- Util.Rng.float rng (Geom.Rect.width d.die);
      d.y.{id} <- Util.Rng.float rng (Geom.Rect.height d.die)
    end
  done;
  let timer = Sta.Timer.create d in
  Sta.Timer.update timer;
  (* Absurdly loose thresholds: nothing violates. *)
  let loose = Sta.Timer.check_drv ~max_cap:1e9 ~max_slew:1e9 timer in
  Alcotest.(check int) "no cap violations" 0 loose.cap_violations;
  Alcotest.(check int) "no slew violations" 0 loose.slew_violations;
  Alcotest.(check bool) "worst cap positive" true (loose.worst_cap > 0.0);
  (* Thresholds below the observed worst: at least one violation each. *)
  let tight =
    Sta.Timer.check_drv ~max_cap:(loose.worst_cap /. 2.0) ~max_slew:(loose.worst_slew /. 2.0)
      timer
  in
  Alcotest.(check bool) "cap violations found" true (tight.cap_violations > 0);
  Alcotest.(check bool) "slew violations found" true (tight.slew_violations > 0);
  (* Worst values are threshold-independent. *)
  check_float "same worst cap" loose.worst_cap tight.worst_cap

(* The placement-only save ([.pl]): a header, then one lower-left
   record per cell, fixed cells flagged. *)
let test_save_placement_format () =
  let d = Helpers.chain_design () in
  let lines =
    Helpers.with_saved ~file:"d.pl" d (fun path ->
        String.split_on_char '\n' (String.trim (Helpers.read_file path)))
  in
  Alcotest.(check string) "header" "UCLA pl 1.0" (List.hd lines);
  Alcotest.(check int) "one line per cell" (Design.num_cells d) (List.length lines - 1);
  List.iteri
    (fun id l ->
      match String.split_on_char ' ' l with
      | name :: x :: y :: ":" :: "N" :: fixed ->
          Alcotest.(check string) "name" (Design.cell_name d id) name;
          Alcotest.(check bool) "fixed flag" (not (Design.is_movable d id)) (fixed = [ "/FIXED" ]);
          check_float "x matches" d.x.{id} (float_of_string x +. (d.w.{id} /. 2.0));
          check_float "y matches" d.y.{id} (float_of_string y +. (d.h.{id} /. 2.0))
      | _ -> Alcotest.fail ("bad placement line: " ^ l))
    (List.tl lines)

let suite =
  [
    ("drv checks", `Quick, test_drv_checks);
    ("save_placement format", `Quick, test_save_placement_format);
    ("sa refine cost never regresses", `Slow, test_sa_refine_never_regresses_cost);
    ("sa refine deterministic", `Slow, test_sa_refine_deterministic);
    ("reorder rows legal", `Quick, test_reorder_rows_legal_and_improving);
    ("early <= late arrivals", `Quick, test_early_le_late);
    ("io delays shift timing", `Quick, test_io_delays_shift_timing);
    ("io delays roundtrip", `Quick, test_io_delays_roundtrip);
    ("pp_path report", `Quick, test_pp_path_report);
    ("hold: chain exact", `Quick, test_hold_chain_exact);
    ("hold: constructed violation", `Quick, test_hold_violation_constructed);
    ("hold: diamond early branch", `Quick, test_hold_diamond_early_branch);
    ("wire stats: segments", `Quick, test_wire_stats_of_segments);
    ("wire stats: critical paths", `Quick, test_wire_stats_critical_paths);
    ("timing dp: never degrades", `Slow, test_timing_dp_never_degrades);
  ]
