(** ECO-style repair flow — the ICCAD2015 contest's "incremental
    timing-driven placement" scenario end to end:

    1. place a design and meet its calibrated clock,
    2. an engineering change tightens the clock by 10% (new violations),
    3. repair with timing-aware detailed placement (incremental STA).

    Run with: dune exec examples/eco_flow.exe *)

let () =
  let d = Workloads.Suite.load ~scale:0.4 "sb4" in
  Printf.printf "placing %s (clock %.0f ps)...\n%!" d.name d.clock_period;
  let r = Tdp.Flow.run (Tdp.Flow.Efficient Tdp.Config.default) d in
  Printf.printf "placed: %s\n" (Format.asprintf "%a" Evalkit.Metrics.pp r.metrics);

  (* The ECO: a 10%% tighter clock arrives from upstream. *)
  d.clock_period <- d.clock_period *. 0.9;
  (* One scorer timer against the new clock scores and repairs. *)
  let timer = Sta.Timer.create ~topology:Sta.Delay.Steiner_tree d in
  let before = Evalkit.Metrics.of_timer timer in
  Printf.printf "\nECO: clock tightened to %.0f ps\n" d.clock_period;
  Printf.printf "violations now: %s\n" (Format.asprintf "%a" Evalkit.Metrics.pp before);

  (* Repair without re-placing: TNS-verified swaps on the incremental
     timer (each candidate is re-timed in ~tens of microseconds). *)
  let t0 = Unix.gettimeofday () in
  let s = Tdp.Timing_dp.run ~max_endpoints:60 ~window:10.0 timer in
  let t_repair = Unix.gettimeofday () -. t0 in
  let after = Evalkit.Metrics.of_timer timer in

  Printf.printf "\nrepair: %d/%d swaps accepted in %.2f s\n" s.accepted s.candidates t_repair;
  Printf.printf "  TNS %.1f -> %.1f ps (%.0f%% recovered)\n" before.tns after.tns
    (100.0 *. (after.tns -. before.tns) /. Float.abs before.tns);
  Printf.printf "  WNS %.1f -> %.1f ps\n" before.wns after.wns;
  Printf.printf "  placement still legal: %b\n" (Gp.Legalize.is_legal d)
