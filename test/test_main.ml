(* Test entry point: every library's suite under one Alcotest runner.
   `dune runtest` runs the quick tests and the slow integration ones.

   PARALLEL_DOMAINS=N runs the whole suite with N parallel domains (CI
   uses 4 to exercise the pool under every kernel); tests that pin a
   specific count do so via [Helpers.with_domains], which restores this
   baseline. *)

let () =
  (match Sys.getenv_opt "PARALLEL_DOMAINS" with
  | Some s -> (
      match int_of_string_opt s with
      | Some n ->
          Util.Parallel.set_num_domains n;
          Printf.eprintf "[test] PARALLEL_DOMAINS=%d\n%!"
            (Util.Parallel.domains (Util.Parallel.default ()))
      | None -> Printf.eprintf "[test] ignoring malformed PARALLEL_DOMAINS=%S\n%!" s)
  | None -> ());
  Alcotest.run "efficient-tdp"
    [
      ("util", Test_util_suite.suite);
      ("parallel", Test_parallel_suite.suite);
      ("obs", Test_obs_suite.suite);
      ("geom", Test_geom_suite.suite);
      ("numerics", Test_numerics_suite.suite);
      ("netlist", Test_netlist_suite.suite);
      ("formats", Test_formats_suite.suite);
      ("rctree", Test_rctree_suite.suite);
      ("sta", Test_sta_suite.suite);
      ("gp", Test_gp_suite.suite);
      ("tdp", Test_tdp_suite.suite);
      ("workloads", Test_workloads_suite.suite);
      ("service", Test_service_suite.suite);
      ("extensions", Test_extensions_suite.suite);
      ("robustness", Test_robustness_suite.suite);
      ("oracle", Test_oracle_suite.suite);
      ("fuzz", Test_fuzz_suite.suite);
      ("properties", Test_properties_suite.suite);
    ]
