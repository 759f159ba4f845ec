(* Tests for the synthetic benchmark generator, the suite, and the
   evaluation kit. *)

open Netlist

let check_float = Alcotest.(check (float 1e-9))

let test_generated_structure () =
  let d = Lazy.force Helpers.small_generated in
  (* Every net: one driver, >= 1 sink; every pin connected or an output. *)
  for nid = 0 to Design.num_nets d - 1 do
    Alcotest.(check bool) "driver" true (d.net_driver.(nid) >= 0);
    Alcotest.(check bool) "sinks" true (Design.net_num_sinks d nid >= 1)
  done;
  (* All comb inputs are connected (generator ties every input). *)
  for pid = 0 to Design.num_pins d - 1 do
    if Design.pin_dir d pid = Design.In then
      Alcotest.(check bool) "input connected" true (d.pin_net.(pid) >= 0)
  done

let test_generated_acyclic () =
  let d = Lazy.force Helpers.small_generated in
  (* Graph.build raises Combinational_loop on cycles. *)
  let g = Sta.Graph.build d in
  Alcotest.(check bool) "built" true (g.Sta.Graph.num_arcs > 0)

let test_generated_counts () =
  let p = Helpers.small_gen_params in
  let d = Lazy.force Helpers.small_generated in
  let count pred =
    let n = ref 0 in
    for i = 0 to Design.num_cells d - 1 do
      if pred i then incr n
    done;
    !n
  in
  let n_logic = count (fun i -> Design.kind d i = Design.Logic) in
  Alcotest.(check int) "logic cells" (p.num_comb + p.num_ff) n_logic;
  let n_ff = count (Design.is_ff d) in
  Alcotest.(check int) "ffs" p.num_ff n_ff;
  let n_block = count (fun i -> Design.kind d i = Design.Blockage) in
  Alcotest.(check int) "macros" p.num_macros n_block

let test_generated_deterministic () =
  let d1 = Workloads.Generate.generate Helpers.small_gen_params in
  let d2 = Workloads.Generate.generate Helpers.small_gen_params in
  Alcotest.(check int) "cells" (Design.num_cells d1) (Design.num_cells d2);
  Alcotest.(check int) "nets" (Design.num_nets d1) (Design.num_nets d2);
  check_float "hpwl" (Design.total_hpwl d1) (Design.total_hpwl d2);
  (* net-by-net identical *)
  for nid = 0 to Design.num_nets d1 - 1 do
    Alcotest.(check int) "sinks equal" (Design.net_num_sinks d1 nid) (Design.net_num_sinks d2 nid)
  done

let test_generated_seed_changes () =
  let d1 = Workloads.Generate.generate Helpers.small_gen_params in
  let d2 = Workloads.Generate.generate { Helpers.small_gen_params with seed = 123 } in
  (* Same sizes, different wiring. *)
  let sig_of (d : Design.t) =
    List.init (Design.num_nets d) (fun nid ->
        List.init (Design.net_num_sinks d nid) (fun k -> Design.net_sink d nid k))
  in
  Alcotest.(check bool) "different netlists" true (sig_of d1 <> sig_of d2)

let test_pads_on_boundary () =
  let d = Lazy.force Helpers.small_generated in
  for id = 0 to Design.num_cells d - 1 do
    match Design.kind d id with
    | Design.Input_pad | Design.Output_pad ->
        let x = d.x.{id} and y = d.y.{id} in
        let on_edge v lo hi = Float.abs (v -. lo) < 1e-6 || Float.abs (v -. hi) < 1e-6 in
        Alcotest.(check bool) "pad on die edge" true
          (on_edge x d.die.xl d.die.xh || on_edge y d.die.yl d.die.yh)
    | Design.Logic | Design.Blockage -> ()
  done

let test_fanout_heavy_tail () =
  let d = Lazy.force Helpers.small_generated in
  let fanouts = Array.init (Design.num_nets d) (fun nid -> Design.net_num_sinks d nid) in
  let max_fo = Array.fold_left max 0 fanouts in
  let mean_fo =
    float_of_int (Array.fold_left ( + ) 0 fanouts) /. float_of_int (Array.length fanouts)
  in
  Alcotest.(check bool)
    (Printf.sprintf "hub nets exist (max %d, mean %.1f)" max_fo mean_fo)
    true
    (float_of_int max_fo > 4.0 *. mean_fo)

let test_calibration_regime () =
  let d = Workloads.Generate.generate Helpers.small_gen_params in
  let q = 0.9 in
  let period = Workloads.Generate.calibrate_clock d ~quantile:q in
  Alcotest.(check bool) "positive period" true (period > 0.0);
  check_float "stored" period d.clock_period;
  (* Re-running the same vanilla GP: roughly (1-q) endpoints should fail. *)
  let _ = Gp.Globalplace.run d in
  let timer = Sta.Timer.create d in
  Sta.Timer.update timer;
  let n_fail = Sta.Timer.num_failing_endpoints timer in
  let n_total = Array.length (Sta.Timer.graph timer).Sta.Graph.endpoints in
  let frac = float_of_int n_fail /. float_of_int n_total in
  Alcotest.(check bool)
    (Printf.sprintf "failing fraction %.3f near %.3f" frac (1.0 -. q))
    true
    (frac > 0.02 && frac < 3.0 *. (1.0 -. q))

let test_suite_entries () =
  let names = Workloads.Suite.names () in
  Alcotest.(check int) "eight designs" 8 (List.length names);
  Alcotest.(check bool) "sb1 present" true (List.mem "sb1" names);
  Alcotest.(check bool) "unknown rejected" true
    (try
       ignore (Workloads.Suite.find "nope");
       false
     with Util.Errors.Error (Util.Errors.Config_error _) -> true)

let test_suite_scaling () =
  let small = Workloads.Suite.find ~scale:0.25 "sb18" in
  let big = Workloads.Suite.find ~scale:1.0 "sb18" in
  Alcotest.(check bool) "scale shrinks" true
    (small.params.Workloads.Genparams.num_comb < big.params.Workloads.Genparams.num_comb)

let test_suite_load_uncalibrated () =
  let d = Workloads.Suite.load ~scale:0.15 ~calibrate:false "sb18" in
  Alcotest.(check bool) "placeholder clock" true (d.clock_period > 1e6)

(* ---------------- Evalkit ---------------- *)

let test_evalkit_consistency () =
  let d = Helpers.small_calibrated () in
  ignore (Gp.Globalplace.run d);
  let m1 = Evalkit.Metrics.evaluate d in
  let m2 = Evalkit.Metrics.evaluate d in
  check_float "tns stable" m1.tns m2.tns;
  check_float "hpwl stable" m1.hpwl m2.hpwl;
  Alcotest.(check bool) "tns <= 0" true (m1.tns <= 0.0);
  Alcotest.(check bool) "wns >= tns" true (m1.wns >= m1.tns);
  Alcotest.(check bool) "failing <= endpoints" true (m1.num_failing <= m1.num_endpoints);
  check_float "hpwl matches design" (Design.total_hpwl d) m1.hpwl

let test_evalkit_ratio () =
  check_float "both zero" 1.0 (Evalkit.Metrics.neg_metric_ratio ~value:0.0 ~base:0.0);
  check_float "double" 2.0 (Evalkit.Metrics.neg_metric_ratio ~value:(-10.0) ~base:(-5.0));
  Alcotest.(check bool) "zero base inf" true
    (Evalkit.Metrics.neg_metric_ratio ~value:(-1.0) ~base:0.0 = Float.infinity)

let suite =
  [
    ("generated structure", `Quick, test_generated_structure);
    ("generated acyclic", `Quick, test_generated_acyclic);
    ("generated counts", `Quick, test_generated_counts);
    ("generated deterministic", `Quick, test_generated_deterministic);
    ("seed changes wiring", `Quick, test_generated_seed_changes);
    ("pads on boundary", `Quick, test_pads_on_boundary);
    ("fanout long tail", `Quick, test_fanout_heavy_tail);
    ("clock calibration regime", `Slow, test_calibration_regime);
    ("suite entries", `Quick, test_suite_entries);
    ("suite scaling", `Quick, test_suite_scaling);
    ("suite load uncalibrated", `Quick, test_suite_load_uncalibrated);
    ("evalkit consistency", `Slow, test_evalkit_consistency);
    ("evalkit ratio", `Quick, test_evalkit_ratio);
  ]
