(* Randomised integration properties: arbitrary (small) generator
   parameters must always yield structurally sound designs on which the
   whole stack — IO, STA, placement, legalization — operates correctly. *)

open Netlist

let params_gen =
  QCheck.Gen.(
    map
      (fun (seed, num_comb, num_ff, levels, (num_io, num_macros, hub_prob)) ->
        {
          Workloads.Genparams.default with
          name = "fuzz";
          seed;
          num_comb = 40 + num_comb;
          num_ff = 8 + num_ff;
          num_inputs = 4 + num_io;
          num_outputs = 4 + num_io;
          levels = 2 + levels;
          num_macros;
          fanout_hub_prob = hub_prob;
        })
      (tup5 (0 -- 10_000) (0 -- 260) (0 -- 60) (0 -- 10)
         (tup3 (0 -- 20) (0 -- 3) (float_bound_inclusive 0.1))))

let params_arb =
  QCheck.make
    ~print:(fun (p : Workloads.Genparams.t) ->
      Printf.sprintf "seed=%d comb=%d ff=%d lvl=%d io=%d macros=%d" p.seed p.num_comb p.num_ff
        p.levels p.num_inputs p.num_macros)
    params_gen

let qtest ?(count = 30) name prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name params_arb prop)

let fuzz_structure =
  qtest "generated designs structurally sound" (fun p ->
      let d = Workloads.Generate.generate p in
      let nets_ok = ref true in
      for nid = 0 to Design.num_nets d - 1 do
        if not (d.net_driver.(nid) >= 0 && Design.net_num_sinks d nid >= 1) then nets_ok := false
      done;
      let pins_ok = ref true in
      for pid = 0 to Design.num_pins d - 1 do
        if not (Design.pin_dir d pid = Design.Out || d.pin_net.(pid) >= 0) then pins_ok := false
      done;
      !nets_ok && !pins_ok && Design.num_movable d > 0)

let fuzz_acyclic_and_timeable =
  qtest "generated designs build a DAG and time cleanly" (fun p ->
      let d = Workloads.Generate.generate p in
      d.clock_period <- 1000.0;
      let timer = Sta.Timer.create d in
      Sta.Timer.update timer;
      (* tns <= 0 and finite; wns >= tns *)
      let tns = Sta.Timer.tns timer and wns = Sta.Timer.wns timer in
      Float.is_finite tns && Float.is_finite wns && tns <= 0.0 && wns >= tns)

let fuzz_io_roundtrip =
  qtest "io roundtrip preserves structure" (fun p ->
      let d = Workloads.Generate.generate p in
      let d2 = Helpers.with_saved d Formats.Auto.load in
      Design.num_cells d = Design.num_cells d2
      && Design.num_nets d = Design.num_nets d2
      && Int64.bits_of_float (Design.total_hpwl d) = Int64.bits_of_float (Design.total_hpwl d2))

let fuzz_place_and_legalize =
  qtest ~count:10 "place + legalize always legal" (fun p ->
      let d = Workloads.Generate.generate p in
      let params = { Gp.Globalplace.default_params with max_iters = 120; min_iters = 40 } in
      ignore (Gp.Globalplace.run ~params d);
      ignore (Gp.Legalize.run d);
      Gp.Legalize.is_legal d)

let fuzz_extraction_coverage =
  qtest ~count:10 "endpoint extraction covers failing endpoints" (fun p ->
      let d = Workloads.Generate.generate p in
      (* Tighten until something fails. *)
      d.clock_period <- 200.0;
      let timer = Sta.Timer.create d in
      Sta.Timer.update timer;
      let n = Sta.Timer.num_failing_endpoints timer in
      if n = 0 then true
      else begin
        let paths = Sta.Timer.report_timing_endpoint timer ~n ~k:1 in
        let eps =
          List.sort_uniq compare (List.map (fun (q : Sta.Paths.path) -> q.endpoint) paths)
        in
        List.length eps = n
      end)

let suite =
  [
    fuzz_structure;
    fuzz_acyclic_and_timeable;
    fuzz_io_roundtrip;
    fuzz_place_and_legalize;
    fuzz_extraction_coverage;
  ]
