(** Benchmark harness: regenerates every table and figure of the paper's
    evaluation section (see DESIGN.md section 5 for the experiment index).

    Usage:
      dune exec bench/main.exe                      -- everything
      dune exec bench/main.exe -- table1 fig5       -- selected sections
      dune exec bench/main.exe -- --scale 1.0 all   -- bigger designs
      dune exec bench/main.exe -- --json BENCH_results.json table2
      dune exec bench/main.exe -- -domains 4 table2 -- parallel kernels
      dune exec bench/main.exe -- scaling           -- domain-scaling sweep
      dune exec bench/main.exe -- spectral --grid-max 512 -- Poisson engine sweep

    Sections: table1 table2 table3 table4 fig3 fig4 fig5 micro scaling
    spectral scale formats smoke all ("smoke" is the CI sentinel sweep
    and not part of "all"; "spectral" sweeps the real-even plan engine
    over grids up to [--grid-max], default 2048; "scale" runs the SoA
    kernel ladder over designs up to [--cells-max] cells, default 100k;
    "formats" times cold Bookshelf / LEF-DEF parses over the same ladder
    — MB/s and minor words per cell).
    Default design scale is 0.5 (full bench in minutes); 1.0 doubles the
    design sizes at ~4x the runtime. [--json FILE] additionally dumps
    every flow result the run produced (runtime, breakdown, tns/wns,
    hpwl, curve) as one machine-readable JSON document. [-domains N] runs
    the flows with N parallel domains; the [scaling] section instead
    sweeps each hot kernel over 1/2/4 domains and writes
    BENCH_parallel.json. *)

let scale = ref 0.5

let json_out : string option ref = ref None

let domains = ref 1

(* Largest grid dimension the [spectral] section sweeps (CI trims it). *)
let grid_max = ref 2048

(* Extra bench-results-v1 entries produced by non-flow sections (the
   spectral sweep); merged into the [--json] dump alongside flow results. *)
let extra_entries : Obs.Json.t list ref = ref []

(* ------------------------------------------------------------------ *)
(* Design and flow-result caches: Table IV reuses Table II's runs, the
   figures reuse designs, etc. *)

let designs : (string, Netlist.Design.t) Hashtbl.t = Hashtbl.create 8

let design name =
  match Hashtbl.find_opt designs name with
  | Some d -> d
  | None ->
      Printf.printf "[gen] %s (scale %.2f)...\n%!" name !scale;
      let d = Workloads.Suite.load ~scale:!scale name in
      Hashtbl.add designs name d;
      d

let flow_results : (string * string, (Tdp.Flow.result, Util.Errors.t) result) Hashtbl.t =
  Hashtbl.create 64

(* One (design, method) flow, memoised. A typed pipeline failure
   ([Util.Errors.Error], e.g. [Diverged] after the rollback budget) is
   caught and recorded as that entry's outcome — the sweep continues and
   the [--json] dump serialises the error — instead of aborting the whole
   bench run. Programmer errors still escape. *)
let run_flow_err ?key_label dname meth =
  let label = match key_label with Some l -> l | None -> Tdp.Flow.method_name meth in
  let key = (dname, label) in
  match Hashtbl.find_opt flow_results key with
  | Some r -> r
  | None ->
      Printf.printf "[run] %-18s on %s...\n%!" label dname;
      let r =
        try Ok (Tdp.Flow.run meth (design dname))
        with Util.Errors.Error e ->
          Printf.printf "[fail] %-18s on %s: %s (recorded; sweep continues)\n%!" label dname
            (Util.Errors.message e);
          Error e
      in
      Hashtbl.add flow_results key r;
      r

let run_flow dname meth = run_flow_err dname meth

let suite = [ "sb1"; "sb3"; "sb4"; "sb5"; "sb7"; "sb10"; "sb16"; "sb18" ]

let f1 = Util.Tablefmt.fmt_float ~prec:1

let f2 = Util.Tablefmt.fmt_float ~prec:2

(* Average of |v|/|ours| ratios; [floor] bounds the denominator away from
   zero so a fully-met design does not produce an infinite ratio (use
   ~100 ps for TNS/WNS, small values for runtime/HPWL). *)
let avg_ratio ?(floor = 100.0) pairs =
  let rs =
    List.map
      (fun (v, ours) -> Float.max floor (Float.abs v) /. Float.max floor (Float.abs ours))
      pairs
  in
  (* Geometric mean: a single almost-met design would otherwise dominate
     the arithmetic mean through its tiny denominator. *)
  Util.Stats.geomean (Array.of_list rs)

(* ------------------------------------------------------------------ *)
(* Table I: critical path extraction statistics.                       *)

let table1 () =
  let dname = "sb1" in
  let d = design dname in
  (* Coarse placement: the vanilla flow's global placement result. *)
  ignore (run_flow dname Tdp.Flow.Vanilla);
  let timer = Sta.Timer.create ~topology:Sta.Delay.Steiner_tree d in
  Sta.Timer.update timer;
  let n = Sta.Timer.num_failing_endpoints timer in
  Printf.printf "\nTable I workload: %s, %d failing endpoints\n" dname n;
  let t =
    Util.Tablefmt.create ~title:"TABLE I: timing statistics of critical path extraction methods"
      ~headers:[ "Command"; "Complexity"; "#Paths"; "#Endpoints"; "#Pin Pairs"; "Time (sec)" ]
      ~aligns:[ Left; Left; Right; Right; Right; Right ]
  in
  let measure name complexity f =
    let t0 = Unix.gettimeofday () in
    let paths = f () in
    let elapsed = Unix.gettimeofday () -. t0 in
    let s = Sta.Timer.stats_of_paths timer paths ~elapsed in
    Util.Tablefmt.add_row t
      [
        name;
        complexity;
        string_of_int s.Sta.Report.num_paths;
        string_of_int s.Sta.Report.num_endpoints;
        string_of_int s.Sta.Report.num_pin_pairs;
        Printf.sprintf "%.4f" elapsed;
      ];
    s
  in
  let s1 =
    measure
      (Printf.sprintf "report_timing(%d)" n)
      "O(n^2)"
      (fun () -> Sta.Timer.report_timing timer ~n)
  in
  let _ =
    measure
      (Printf.sprintf "report_timing(%d)" (10 * n))
      "O(n^2)"
      (fun () -> Sta.Timer.report_timing timer ~n:(10 * n))
  in
  let s3 =
    measure
      (Printf.sprintf "report_timing_endpoint(%d,1)" n)
      "O(n*k)"
      (fun () -> Sta.Timer.report_timing_endpoint timer ~n ~k:1)
  in
  let _ =
    measure
      (Printf.sprintf "report_timing_endpoint(%d,10)" n)
      "O(n*k)"
      (fun () -> Sta.Timer.report_timing_endpoint timer ~n ~k:10)
  in
  Util.Tablefmt.print t;
  Printf.printf
    "paper shape: endpoint coverage %d/%d vs %d/%d; speedup rt(n)/rt_ept(n,1) = %.1fx (paper ~6x)\n\n"
    s1.Sta.Report.num_endpoints n s3.Sta.Report.num_endpoints n
    (s1.Sta.Report.elapsed /. Float.max 1e-6 s3.Sta.Report.elapsed)

(* ------------------------------------------------------------------ *)
(* Table II: main results.                                             *)

let table2_methods () =
  [
    Tdp.Flow.Vanilla;
    Tdp.Flow.Dp4;
    Tdp.Flow.Diff_tdp;
    Tdp.Flow.Dist_tdp;
    Tdp.Flow.Efficient Tdp.Config.default;
  ]

let table2 () =
  let methods = table2_methods () in
  let t =
    Util.Tablefmt.create
      ~title:"TABLE II: TNS (x10^3 ps), WNS (x10^3 ps), HPWL (x10^3) across timing-driven placers"
      ~headers:
        ("Benchmark"
        :: List.concat_map
             (fun m ->
               let n = Tdp.Flow.method_name m in
               [ n ^ " TNS"; "WNS"; "HPWL" ])
             methods)
      ~aligns:(Left :: List.concat_map (fun _ -> [ Util.Tablefmt.Right; Right; Right ]) methods)
  in
  let all = List.map (fun dn -> (dn, List.map (fun m -> run_flow dn m) methods)) suite in
  List.iter
    (fun (dn, rs) ->
      Util.Tablefmt.add_row t
        (dn
        :: List.concat_map
             (function
               | Ok (r : Tdp.Flow.result) ->
                   [
                     f2 (r.metrics.tns /. 1e3);
                     f2 (r.metrics.wns /. 1e3);
                     f1 (r.metrics.hpwl /. 1e3);
                   ]
               | Error _ -> [ "-"; "-"; "-" ])
             rs))
    all;
  Util.Tablefmt.add_sep t;
  (* Average ratios against Efficient-TDP (the last method), over the
     (design, method) pairs where both flows succeeded. *)
  let ours rs = List.nth rs (List.length rs - 1) in
  let find_ok name rs =
    List.find_map
      (function Ok (r : Tdp.Flow.result) when r.name = name -> Some r | _ -> None)
      rs
  in
  Util.Tablefmt.add_row t
    ("Avg Ratio"
    :: List.concat_map
         (fun m ->
           let name = Tdp.Flow.method_name m in
           let col ?floor f =
             let pairs =
               List.filter_map
                 (fun (_, rs) ->
                   match (find_ok name rs, ours rs) with
                   | Some r, Ok (o : Tdp.Flow.result) -> Some (f r, f o)
                   | _ -> None)
                 all
             in
             if pairs = [] then Float.nan else avg_ratio ?floor pairs
           in
           [
             f2 (col (fun r -> r.metrics.tns));
             f2 (col (fun r -> r.metrics.wns));
             Printf.sprintf "%.3f" (col ~floor:1e-3 (fun (r : Tdp.Flow.result) -> r.metrics.hpwl));
           ])
         methods);
  Util.Tablefmt.print t;
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Table III: ablation study.                                          *)

let table3 () =
  let base = Tdp.Config.default in
  let variants =
    [
      ("w/ HPWL Loss", Tdp.Flow.Efficient (Tdp.Config.with_loss Tdp.Config.Hpwl_like base));
      ("w/ Linear Loss", Tdp.Flow.Efficient (Tdp.Config.with_loss Tdp.Config.Linear base));
      ( "w/ rpt_timing(n)",
        Tdp.Flow.Efficient { base with extraction = Tdp.Config.Global_topn { mult = 1 } } );
      ( "w/ rpt_timing(n*10)",
        Tdp.Flow.Efficient { base with extraction = Tdp.Config.Global_topn { mult = 10 } } );
      ( "w/ rpt_timing_ept(n,10)",
        Tdp.Flow.Efficient { base with extraction = Tdp.Config.Endpoint_based { k = 10 } } );
      ("w/o Path Extraction", Tdp.Flow.Dp4_in_ours);
      ("Our Method", Tdp.Flow.Efficient base);
    ]
  in
  (* Distinct cache keys per variant. *)
  let run dn (vname, meth) = run_flow_err ~key_label:("t3:" ^ vname) dn meth in
  let t =
    Util.Tablefmt.create ~title:"TABLE III: ablation study, TNS (x10^3 ps) and WNS (x10^3 ps)"
      ~headers:("Benchmark" :: List.concat_map (fun (n, _) -> [ n ^ " TNS"; "WNS" ]) variants)
      ~aligns:(Left :: List.concat_map (fun _ -> [ Util.Tablefmt.Right; Right ]) variants)
  in
  let all = List.map (fun dn -> (dn, List.map (fun v -> (fst v, run dn v)) variants)) suite in
  List.iter
    (fun (dn, rs) ->
      Util.Tablefmt.add_row t
        (dn
        :: List.concat_map
             (fun (_, r) ->
               match r with
               | Ok (r : Tdp.Flow.result) ->
                   [ f2 (r.metrics.tns /. 1e3); f2 (r.metrics.wns /. 1e3) ]
               | Error _ -> [ "-"; "-" ])
             rs))
    all;
  Util.Tablefmt.add_sep t;
  let ours_of rs = snd (List.nth rs (List.length rs - 1)) in
  Util.Tablefmt.add_row t
    ("Avg Ratio"
    :: List.concat_map
         (fun (vname, _) ->
           let col f =
             let pairs =
               List.filter_map
                 (fun (_, rs) ->
                   match (snd (List.find (fun (n, _) -> n = vname) rs), ours_of rs) with
                   | Ok (r : Tdp.Flow.result), Ok (o : Tdp.Flow.result) -> Some (f r, f o)
                   | _ -> None)
                 all
             in
             if pairs = [] then Float.nan else avg_ratio pairs
           in
           [
             f2 (col (fun (r : Tdp.Flow.result) -> r.metrics.tns));
             f2 (col (fun (r : Tdp.Flow.result) -> r.metrics.wns));
           ])
         variants);
  Util.Tablefmt.print t;
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Table IV: runtime.                                                  *)

let table4 () =
  let methods = [ Tdp.Flow.Vanilla; Tdp.Flow.Dp4; Tdp.Flow.Efficient Tdp.Config.default ] in
  let t =
    Util.Tablefmt.create ~title:"TABLE IV: runtime (sec)"
      ~headers:[ "Benchmark"; "DREAMPlace"; "DREAMPlace 4.0"; "Our Method" ]
      ~aligns:[ Left; Right; Right; Right ]
  in
  let all = List.map (fun dn -> (dn, List.map (fun m -> run_flow dn m) methods)) suite in
  List.iter
    (fun (dn, rs) ->
      Util.Tablefmt.add_row t
        (dn
        :: List.map
             (function Ok (r : Tdp.Flow.result) -> f2 r.runtime | Error _ -> "-")
             rs))
    all;
  Util.Tablefmt.add_sep t;
  let ratios i =
    let pairs =
      List.filter_map
        (fun (_, rs) ->
          match (List.nth rs i, List.nth rs 2) with
          | Ok (r : Tdp.Flow.result), Ok (o : Tdp.Flow.result) -> Some (r.runtime, o.runtime)
          | _ -> None)
        all
    in
    if pairs = [] then Float.nan else avg_ratio ~floor:1e-3 pairs
  in
  Util.Tablefmt.add_row t [ "Avg Ratio"; f2 (ratios 0); f2 (ratios 1); f2 (ratios 2) ];
  Util.Tablefmt.print t;
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Fig. 3: one critical path under the three distance losses.          *)

let fig3 () =
  let dname = "sb16" in
  Printf.printf "FIG 3: worst critical path of %s optimised under each distance loss\n" dname;
  let base = Tdp.Config.default in
  let losses =
    [
      ("coarse (no timing opt)", None);
      ("HPWL loss", Some (Tdp.Config.with_loss Tdp.Config.Hpwl_like base));
      ("Linear loss", Some (Tdp.Config.with_loss Tdp.Config.Linear base));
      ("Quadratic loss (ours)", Some base);
    ]
  in
  let d = design dname in
  (* Identify the worst endpoint on the coarse (vanilla) placement; track
     the same endpoint across the loss variants. Every variant re-places
     the design freshly: cached results carry metrics, not placements. *)
  ignore (Tdp.Flow.run Tdp.Flow.Vanilla d);
  let coarse_timer = Sta.Timer.create d in
  Sta.Timer.update coarse_timer;
  let target_ep =
    match Sta.Timer.critical_path coarse_timer with
    | Some p -> p.Sta.Paths.endpoint
    | None -> failwith "fig3: no critical path"
  in
  let t =
    Util.Tablefmt.create ~title:"FIG 3 (quantified): tracked path geometry per loss"
      ~headers:
        [ "Loss"; "Path slack (ps)"; "Path WL"; "Max seg"; "Mean seg"; "Seg CV"; "Segments" ]
      ~aligns:[ Left; Right; Right; Right; Right; Right; Left ]
  in
  let describe name =
    let timer = Sta.Timer.create d in
    Sta.Timer.update timer;
    match
      Sta.Paths.worst_path (Sta.Timer.graph timer) (Sta.Timer.arrivals timer) ~endpoint:target_ep
    with
    | None -> ()
    | Some p ->
        let graph = Sta.Timer.graph timer in
        let segs =
          Array.to_list p.arcs
          |> List.filter (fun a -> graph.Sta.Graph.arc_is_net.(a))
          |> List.map (fun a ->
                 let pi = graph.Sta.Graph.arc_from.(a) in
                 let pj = graph.Sta.Graph.arc_to.(a) in
                 Geom.Point.manhattan (Netlist.Design.pin_pos d pi) (Netlist.Design.pin_pos d pj))
          |> Array.of_list
        in
        (* ASCII sparkline of segment lengths along the path. *)
        let chars = "_.-=+*#%@" in
        let maxseg = Float.max 1e-9 (Util.Stats.max_elt segs) in
        let spark =
          String.concat ""
            (Array.to_list
               (Array.map
                  (fun l ->
                    let i = int_of_float (l /. maxseg *. 8.0) in
                    String.make 1 chars.[max 0 (min 8 i)])
                  segs))
        in
        Util.Tablefmt.add_row t
          [
            name;
            f1 p.slack;
            f1 (Util.Stats.sum segs);
            f1 (Util.Stats.max_elt segs);
            f1 (Util.Stats.mean segs);
            f2 (Util.Stats.coeff_variation segs);
            spark;
          ]
  in
  List.iter
    (fun (name, cfg) ->
      (match cfg with
      | None -> ignore (Tdp.Flow.run Tdp.Flow.Vanilla d)
      | Some c ->
          Printf.printf "[run] fig3 %-22s on %s...\n%!" name dname;
          ignore (Tdp.Flow.run (Tdp.Flow.Efficient c) d));
      describe name)
    losses;
  Util.Tablefmt.print t;
  Printf.printf
    "paper shape: quadratic gives the best slack and the most uniform segments (low CV),\n\
     HPWL/linear leave a few very long segments despite shorter total path WL.\n\n"

(* ------------------------------------------------------------------ *)
(* Fig. 4: runtime breakdown, DP4 vs ours, normalised to DP4 total.    *)

let fig4 () =
  let dname = "sb1" in
  match (run_flow dname Tdp.Flow.Dp4, run_flow dname (Tdp.Flow.Efficient Tdp.Config.default)) with
  | Error _, _ | _, Error _ ->
      Printf.printf "FIG 4 skipped: a required flow on %s failed\n\n" dname
  | Ok dp4, Ok ours ->
  let total_dp4 = dp4.runtime in
  let t =
    Util.Tablefmt.create
      ~title:
        (Printf.sprintf
           "FIG 4: runtime breakdown on %s, normalised to DREAMPlace 4.0 total (%.2fs)" dname
           total_dp4)
      ~headers:[ "Component"; "DREAMPlace 4.0"; "Our Method" ]
      ~aligns:[ Left; Right; Right ]
  in
  let get (r : Tdp.Flow.result) names =
    List.fold_left
      (fun acc n -> acc +. (try List.assoc n r.breakdown with Not_found -> 0.0))
      0.0 names
  in
  let rows =
    [
      ("wirelength grad", [ "wl_grad" ]);
      ("density (fft)", [ "density" ]);
      ("optimizer", [ "optimizer" ]);
      ("sta", [ "sta+weighting"; "sta" ]);
      ("path extraction", [ "extraction" ]);
      ("pin-pair weighting", [ "pp_grad" ]);
      ("legalize+detailed", [ "legalize"; "detailed" ]);
    ]
  in
  let acc_dp4 = ref 0.0 and acc_ours = ref 0.0 in
  List.iter
    (fun (label, keys) ->
      let a = get dp4 keys and b = get ours keys in
      acc_dp4 := !acc_dp4 +. a;
      acc_ours := !acc_ours +. b;
      Util.Tablefmt.add_row t
        [ label; Printf.sprintf "%.3f" (a /. total_dp4); Printf.sprintf "%.3f" (b /. total_dp4) ])
    rows;
  Util.Tablefmt.add_row t
    [
      "other";
      Printf.sprintf "%.3f" ((total_dp4 -. !acc_dp4) /. total_dp4);
      Printf.sprintf "%.3f" ((ours.runtime -. !acc_ours) /. total_dp4);
    ];
  Util.Tablefmt.add_sep t;
  Util.Tablefmt.add_row t [ "total"; "1.000"; Printf.sprintf "%.3f" (ours.runtime /. total_dp4) ];
  Util.Tablefmt.print t;
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Fig. 5: optimisation trajectories.                                  *)

let fig5 () =
  let dname = "sb1" in
  match (run_flow dname Tdp.Flow.Dp4, run_flow dname (Tdp.Flow.Efficient Tdp.Config.default)) with
  | Error _, _ | _, Error _ ->
      Printf.printf "FIG 5 skipped: a required flow on %s failed\n\n" dname
  | Ok dp4, Ok ours ->
  Printf.printf "FIG 5: optimisation trajectory on %s (timing starts at iteration %d)\n" dname
    Tdp.Config.default.timing_start;
  let t =
    Util.Tablefmt.create ~title:"per-round metrics; |tns|/|wns| as in the paper's figure"
      ~headers:
        [ "iter"; "dp4 hpwl"; "ovf"; "|tns|"; "|wns|"; "ours hpwl"; "ovf"; "|tns|"; "|wns|" ]
      ~aligns:[ Right; Right; Right; Right; Right; Right; Right; Right; Right ]
  in
  let tbl : (int, Tdp.Flow.curve_point option * Tdp.Flow.curve_point option) Hashtbl.t =
    Hashtbl.create 64
  in
  List.iter (fun (c : Tdp.Flow.curve_point) -> Hashtbl.replace tbl c.iter (Some c, None)) dp4.curve;
  List.iter
    (fun (c : Tdp.Flow.curve_point) ->
      let prev = match Hashtbl.find_opt tbl c.iter with Some (a, _) -> a | None -> None in
      Hashtbl.replace tbl c.iter (prev, Some c))
    ours.curve;
  let iters = Hashtbl.fold (fun k _ acc -> k :: acc) tbl [] |> List.sort compare in
  List.iter
    (fun i ->
      let a, b = Hashtbl.find tbl i in
      let cell = function
        | None -> [ "-"; "-"; "-"; "-" ]
        | Some (c : Tdp.Flow.curve_point) ->
            [
              Printf.sprintf "%.0f" c.hpwl;
              f2 c.overflow;
              Printf.sprintf "%.0f" (Float.abs c.tns);
              Printf.sprintf "%.0f" (Float.abs c.wns);
            ]
      in
      Util.Tablefmt.add_row t ((string_of_int i :: cell a) @ cell b))
    iters;
  Util.Tablefmt.print t;
  Printf.printf
    "paper shape: ours improves TNS/WNS faster and holds them stable; DP4's heavy net\n\
     weights slow HPWL/overflow convergence.\n\n"

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks of the hot kernels.                       *)

let micro () =
  let open Bechamel in
  let d = design "sb18" in
  ignore (run_flow "sb18" Tdp.Flow.Vanilla);
  let timer = Sta.Timer.create d in
  Sta.Timer.update timer;
  let gx = Array.make (Netlist.Design.num_cells d) 0.0 in
  let gy = Array.make (Netlist.Design.num_cells d) 0.0 in
  let grid = Gp.Densitygrid.create d ~bins_x:64 ~bins_y:64 in
  let electro = Gp.Electro.create grid in
  let n_failing = max 1 (Sta.Timer.num_failing_endpoints timer) in
  let tests =
    Test.make_grouped ~name:"kernels"
      [
        Test.make ~name:"wa_wirelength_grad"
          (Staged.stage (fun () ->
               Array.fill gx 0 (Array.length gx) 0.0;
               Array.fill gy 0 (Array.length gy) 0.0;
               ignore (Gp.Wirelength.wa_wirelength_grad d ~gamma:2.0 ~gx ~gy)));
        Test.make ~name:"density_update+poisson"
          (Staged.stage (fun () ->
               Gp.Densitygrid.update grid d;
               Gp.Electro.solve electro ~target_density:1.0));
        Test.make ~name:"sta_full_update"
          (Staged.stage (fun () ->
               Sta.Timer.invalidate timer;
               Sta.Timer.update timer));
        Test.make ~name:"report_timing_endpoint(n,1)"
          (Staged.stage (fun () ->
               ignore (Sta.Timer.report_timing_endpoint timer ~n:n_failing ~k:1)));
        Test.make ~name:"report_timing(n)"
          (Staged.stage (fun () -> ignore (Sta.Timer.report_timing timer ~n:n_failing)));
      ]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:false () in
  let raw = Benchmark.all cfg [ instance ] tests in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  let results = Analyze.all ols instance raw in
  Printf.printf "MICRO: per-call wall time of hot kernels (sb18 scale %.2f)\n" !scale;
  Hashtbl.iter
    (fun name result ->
      match Analyze.OLS.estimates result with
      | Some [ est ] -> Printf.printf "  %-40s %12.1f ns/call\n" name est
      | _ -> Printf.printf "  %-40s (no estimate)\n" name)
    results;
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Domain-scaling sweep: each parallel hot kernel at 1/2/4 domains.      *)
(* Writes BENCH_parallel.json (schema bench-parallel-v1).                *)

(* ns/op of [f]: one warm-up call, then repeat until ~0.3 s elapsed. *)
let time_ns f =
  f ();
  let t0 = Unix.gettimeofday () in
  let reps = ref 0 in
  let elapsed = ref 0.0 in
  while !elapsed < 0.3 do
    f ();
    incr reps;
    elapsed := Unix.gettimeofday () -. t0
  done;
  !elapsed /. float_of_int !reps *. 1e9

let scaling () =
  let dname = "sb18" in
  let d = design dname in
  ignore (run_flow dname Tdp.Flow.Vanilla);
  let timer = Sta.Timer.create d in
  Sta.Timer.update timer;
  let gx = Array.make (Netlist.Design.num_cells d) 0.0 in
  let gy = Array.make (Netlist.Design.num_cells d) 0.0 in
  let grid = Gp.Densitygrid.create d ~bins_x:64 ~bins_y:64 in
  let electro = Gp.Electro.create grid in
  let n_ep = max 1 (min 64 (Array.length (Sta.Timer.graph timer).Sta.Graph.endpoints)) in
  let kernels =
    [
      ("density.update", Netlist.Design.num_cells d, fun () -> Gp.Densitygrid.update grid d);
      ( "electro.solve",
        64 * 64,
        fun () ->
          Gp.Densitygrid.update grid d;
          Gp.Electro.solve electro ~target_density:1.0 );
      ( "wirelength.grad",
        Netlist.Design.num_nets d,
        fun () ->
          Array.fill gx 0 (Array.length gx) 0.0;
          Array.fill gy 0 (Array.length gy) 0.0;
          ignore (Gp.Wirelength.wa_wirelength_grad d ~gamma:2.0 ~gx ~gy) );
      ( "sta.update",
        Sta.Graph.num_pins (Sta.Timer.graph timer),
        fun () ->
          Sta.Timer.invalidate timer;
          Sta.Timer.update timer );
      ( "extract.endpoints",
        n_ep,
        fun () ->
          ignore (Sta.Timer.report_timing_endpoint timer ~n:n_ep ~k:5 ~failing_only:false) );
    ]
  in
  let sweep = [ 1; 2; 4 ] in
  let host_cores = Domain.recommended_domain_count () in
  Printf.printf "SCALING: parallel kernels on %s, host reports %d core(s)\n" dname host_cores;
  let t =
    Util.Tablefmt.create
      ~title:"domain scaling of the parallel hot kernels (speedup vs 1 domain)"
      ~headers:[ "Kernel"; "n"; "Domains"; "ns/op"; "Speedup" ]
      ~aligns:[ Left; Right; Right; Right; Right ]
  in
  let saved = !Util.Parallel.num_domains in
  let results = ref [] in
  List.iter
    (fun (kname, n, f) ->
      let base = ref 0.0 in
      List.iter
        (fun dn ->
          Util.Parallel.set_num_domains dn;
          let ns = time_ns f in
          if dn = 1 then base := ns;
          let speedup = !base /. Float.max 1e-9 ns in
          results := (kname, n, dn, ns, speedup) :: !results;
          Util.Tablefmt.add_row t
            [
              kname;
              string_of_int n;
              string_of_int dn;
              Printf.sprintf "%.0f" ns;
              Printf.sprintf "%.2fx" speedup;
            ])
        sweep)
    kernels;
  Util.Parallel.set_num_domains saved;
  Util.Tablefmt.print t;
  let doc =
    Obs.Json.Obj
      [
        ("schema", Obs.Json.String "bench-parallel-v1");
        ("design", Obs.Json.String dname);
        ("scale", Obs.Json.Float !scale);
        ("host_cores", Obs.Json.Int host_cores);
        ( "results",
          Obs.Json.List
            (List.rev_map
               (fun (kname, n, dn, ns, speedup) ->
                 Obs.Json.Obj
                   [
                     ("kernel", Obs.Json.String kname);
                     ("n", Obs.Json.Int n);
                     ("domains", Obs.Json.Int dn);
                     ("ns_per_op", Obs.Json.Float ns);
                     ("speedup", Obs.Json.Float speedup);
                   ])
               !results) );
      ]
  in
  let path = "BENCH_parallel.json" in
  let oc = open_out path in
  output_string oc (Obs.Json.to_string doc);
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote %d scaling points to %s\n\n" (List.length !results) path

(* ------------------------------------------------------------------ *)
(* Extension ablations beyond the paper: design decisions DESIGN.md      *)
(* calls out, plus hold / congestion / buffer-candidate side metrics.    *)

let ext () =
  let dnames = [ "sb18"; "sb16"; "sb4" ] in
  (* -- A: stale-pair relaxation and beta (our deviations) -- *)
  let t =
    Util.Tablefmt.create
      ~title:"EXT A: Efficient-TDP variants (TNS x10^3 / WNS x10^3 / HPWL x10^3)"
      ~headers:
        ("Variant"
        :: List.concat_map (fun dn -> [ dn ^ " TNS"; "WNS"; "HPWL" ]) dnames)
      ~aligns:(Left :: List.concat_map (fun _ -> [ Util.Tablefmt.Right; Right; Right ]) dnames)
  in
  let base = Tdp.Config.default in
  let variants =
    [
      ("default (b=.75 decay=.90)", base, Tdp.Flow.flow_topology);
      ("pure Eq.9 (decay=1.0)", { base with stale_decay = 1.0 }, Tdp.Flow.flow_topology);
      ("beta=0.4", { base with beta = 0.4 }, Tdp.Flow.flow_topology);
      ("beta=1.1", { base with beta = 1.1 }, Tdp.Flow.flow_topology);
      ("star wire model in timer", base, Sta.Delay.Star);
    ]
  in
  List.iter
    (fun (vname, cfg, topology) ->
      let row =
        List.concat_map
          (fun dn ->
            Printf.printf "[run] ext %-26s on %s...\n%!" vname dn;
            let r = Tdp.Flow.run ~topology (Tdp.Flow.Efficient cfg) (design dn) in
            [
              f2 (r.metrics.tns /. 1e3);
              f2 (r.metrics.wns /. 1e3);
              f1 (r.metrics.hpwl /. 1e3);
            ])
          dnames
      in
      Util.Tablefmt.add_row t (vname :: row))
    variants;
  Util.Tablefmt.print t;
  print_newline ();
  (* -- B: side metrics per flow on sb1: hold, congestion, buffers -- *)
  let t2 =
    Util.Tablefmt.create
      ~title:"EXT B: side metrics on sb1 (hold THS, RUDY hotspot, buffer candidates)"
      ~headers:
        [ "Method"; "setup TNS"; "hold THS"; "hotspot"; "buf cands"; "max seg"; "buf recovery" ]
      ~aligns:[ Left; Right; Right; Right; Right; Right; Right ]
  in
  (* Mean van-Ginneken-recoverable required time over the nets of the
     worst critical paths: how much slack buffer insertion would have to
     claw back (smaller is better placement). *)
  let buffering_recovery d timer =
    let graph = Sta.Timer.graph timer in
    let paths = Sta.Timer.report_timing_endpoint timer ~n:10 ~k:1 ~failing_only:true in
    let nets = Hashtbl.create 64 in
    List.iter
      (fun (p : Sta.Paths.path) ->
        Array.iter
          (fun a ->
            if graph.Sta.Graph.arc_is_net.(a) then
              Hashtbl.replace nets graph.Sta.Graph.arc_net.(a) ())
          p.arcs)
      paths;
    let recs =
      Hashtbl.fold
        (fun nid () acc ->
          let nsinks = Netlist.Design.net_num_sinks d nid in
          let driver = d.Netlist.Design.net_driver.(nid) in
          let xs = Array.make (nsinks + 1) 0.0 and ys = Array.make (nsinks + 1) 0.0 in
          xs.(0) <- Netlist.Design.pin_x d driver;
          ys.(0) <- Netlist.Design.pin_y d driver;
          for k = 0 to nsinks - 1 do
            let pid = Netlist.Design.net_sink d nid k in
            xs.(k + 1) <- Netlist.Design.pin_x d pid;
            ys.(k + 1) <- Netlist.Design.pin_y d pid
          done;
          let tree = Rctree.Steiner.steiner ~xs ~ys in
          let drive_res, _, _ = Sta.Delay.driver_params d driver in
          let res =
            Rctree.Buffering.estimate tree ~r:d.Netlist.Design.r_per_unit
              ~c:d.Netlist.Design.c_per_unit ~drive_res
              ~term_req:(fun _ -> 0.0)
              ~term_cap:(fun k -> d.Netlist.Design.pin_cap.{Netlist.Design.net_sink d nid (k - 1)})
              ()
          in
          (res.Rctree.Buffering.best_q -. res.Rctree.Buffering.unbuffered_q) :: acc)
        nets []
    in
    if recs = [] then 0.0 else Util.Stats.mean (Array.of_list recs)
  in
  let d = design "sb1" in
  List.iter
    (fun meth ->
      Printf.printf "[run] ext-b %-18s on sb1...\n%!" (Tdp.Flow.method_name meth);
      let r = Tdp.Flow.run meth d in
      let timer = Sta.Timer.create d in
      Sta.Timer.update timer;
      let cong = Gp.Congestion.create d ~bins_x:32 ~bins_y:32 in
      Gp.Congestion.update cong d;
      let ws = Evalkit.Wire_stats.of_critical_paths d ~n:30 in
      Util.Tablefmt.add_row t2
        [
          r.name;
          f1 r.metrics.tns;
          f1 (Sta.Timer.ths timer);
          f2 (Gp.Congestion.hotspot_factor cong);
          string_of_int ws.Evalkit.Wire_stats.buffer_candidates;
          f1 ws.Evalkit.Wire_stats.max_length;
          f1 (buffering_recovery d timer);
        ])
    [ Tdp.Flow.Vanilla; Tdp.Flow.Dp4; Tdp.Flow.Efficient Tdp.Config.default ];
  Util.Tablefmt.print t2;
  print_newline ();
  (* -- C: timing-aware detailed placement as a post-pass -- *)
  let t3 =
    Util.Tablefmt.create
      ~title:"EXT C: refinement post-passes (greedy: TNS-only; SA: TNS + 0.2*HPWL cost)"
      ~headers:
        [ "Design"; "TNS start"; "greedy TNS"; "swaps"; "SA TNS"; "SA accepts" ]
      ~aligns:[ Left; Right; Right; Right; Right; Right ]
  in
  List.iter
    (fun dn ->
      Printf.printf "[run] ext-c refinement on %s...\n%!" dn;
      let d = design dn in
      ignore (Tdp.Flow.run (Tdp.Flow.Efficient Tdp.Config.default) d);
      let snap = Netlist.Design.snapshot d in
      let s = Tdp.Timing_dp.run ~max_endpoints:30 d in
      Netlist.Design.restore d snap;
      let sa = Tdp.Sa_refine.run ~moves:3000 d in
      Util.Tablefmt.add_row t3
        [
          dn;
          f1 s.Tdp.Timing_dp.tns_before;
          f1 s.Tdp.Timing_dp.tns_after;
          string_of_int s.Tdp.Timing_dp.accepted;
          f1 sa.Tdp.Sa_refine.tns_after;
          string_of_int sa.Tdp.Sa_refine.accepted;
        ])
    dnames;
  Util.Tablefmt.print t3;
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Multi-seed statistics (optional section "stats", not in the default    *)
(* run): Table II's headline comparison across 3 placement seeds, with    *)
(* mean and spread — quantifies the run-to-run noise EXPERIMENTS.md       *)
(* cautions about.                                                        *)

let stats_section () =
  let seeds = [ 1; 2; 3 ] in
  let dnames = [ "sb18"; "sb16"; "sb4"; "sb1" ] in
  let methods =
    [ Tdp.Flow.Vanilla; Tdp.Flow.Dp4; Tdp.Flow.Efficient Tdp.Config.default ]
  in
  let t =
    Util.Tablefmt.create
      ~title:"STATS: TNS (x10^3 ps) as mean +- std over 3 placement seeds"
      ~headers:("Benchmark" :: List.map Tdp.Flow.method_name methods)
      ~aligns:(Left :: List.map (fun _ -> Util.Tablefmt.Right) methods)
  in
  let wins = ref 0 and total = ref 0 in
  List.iter
    (fun dn ->
      let d = design dn in
      let cells =
        List.map
          (fun m ->
            let tnss =
              List.map
                (fun seed ->
                  Printf.printf "[run] stats %-18s on %s seed %d...\n%!"
                    (Tdp.Flow.method_name m) dn seed;
                  let r = Tdp.Flow.run ~seed m d in
                  r.Tdp.Flow.metrics.Evalkit.Metrics.tns)
                seeds
            in
            Array.of_list tnss)
          methods
      in
      (* Per-seed win count for Efficient-TDP against the best baseline. *)
      List.iteri
        (fun si _ ->
          incr total;
          let ours = (List.nth cells 2).(si) in
          let best_other = Float.max (List.nth cells 0).(si) (List.nth cells 1).(si) in
          if ours >= best_other then incr wins)
        seeds;
      Util.Tablefmt.add_row t
        (dn
        :: List.map
             (fun a ->
               Printf.sprintf "%.2f +- %.2f" (Util.Stats.mean a /. 1e3)
                 (Util.Stats.stddev a /. 1e3))
             cells))
    dnames;
  Util.Tablefmt.print t;
  Printf.printf "Efficient-TDP best or tied in %d/%d (design, seed) pairs\n\n" !wins !total

(* ------------------------------------------------------------------ *)
(* Spectral engine sweep: per-solve wall time and minor-heap allocation
   of the plan engine (solve + field + energy) over a grid ladder (square
   and non-square). Emits gateable bench-results-v1 entries (design
   "spectral<rows>x<cols>", label "plan") with fixed rep counts so the
   recorded runtime is deterministic work, not a clock budget. *)

let spectral () =
  let all_grids =
    [
      (128, 128);
      (256, 256);
      (512, 512);
      (1024, 1024);
      (2048, 2048);
      (512, 128);
      (128, 512);
    ]
  in
  let grids = List.filter (fun (r, c) -> max r c <= !grid_max) all_grids in
  let skipped = List.length all_grids - List.length grids in
  if skipped > 0 then
    Printf.printf "[spectral] --grid-max %d: %d grid(s) skipped\n" !grid_max skipped;
  let t =
    Util.Tablefmt.create ~title:"SPECTRAL: Poisson solve+field+energy on the plan engine"
      ~headers:[ "Grid"; "Reps"; "ms/solve"; "words/solve" ]
      ~aligns:[ Left; Right; Right; Right ]
  in
  let rng = Util.Rng.create 42 in
  List.iter
    (fun (rows, cols) ->
      let n = rows * cols in
      Printf.printf "[run] spectral %dx%d...\n%!" rows cols;
      let p = Numerics.Poisson.create ~rows ~cols in
      let rho = Array.init n (fun _ -> Util.Rng.float_range rng (-1.0) 1.0) in
      let psi = Array.make n 0.0 in
      let ex = Array.make n 0.0 and ey = Array.make n 0.0 in
      (* Fixed work per grid (~2^24 points swept) so runtimes are
         comparable across runs and big grids stay affordable. *)
      let reps = max 4 ((1 lsl 24) / n) in
      let step () =
        Numerics.Poisson.solve_into p ~rho ~psi;
        Numerics.Poisson.field_into p ~psi ~ex ~ey;
        ignore (Numerics.Poisson.energy rho psi)
      in
      step ();
      step ();
      let w0 = Gc.minor_words () in
      let t0 = Unix.gettimeofday () in
      for _ = 1 to reps do
        step ()
      done;
      let dt = Unix.gettimeofday () -. t0 in
      let dw = Gc.minor_words () -. w0 in
      let fr = float_of_int reps in
      Util.Tablefmt.add_row t
        [
          Printf.sprintf "%dx%d" rows cols;
          string_of_int reps;
          Printf.sprintf "%.3f" (dt /. fr *. 1e3);
          Printf.sprintf "%.0f" (dw /. fr);
        ];
      extra_entries :=
        Obs.Json.Obj
          [
            ("label", Obs.Json.String "plan");
            ("name", Obs.Json.String "plan");
            ("design", Obs.Json.String (Printf.sprintf "spectral%dx%d" rows cols));
            ("reps", Obs.Json.Int reps);
            ("runtime", Obs.Json.Float dt);
            ( "resource",
              Obs.Json.Obj
                [
                  ("minor_words", Obs.Json.Float dw);
                  ("ms_per_solve", Obs.Json.Float (dt /. fr *. 1e3));
                  ("words_per_solve", Obs.Json.Float (dw /. fr));
                ] );
          ]
        :: !extra_entries)
    grids;
  Util.Tablefmt.print t;
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Scale: the SoA database on the 100k+ cell ladder. Per rung: design
   generation time, memory footprint (words/cell), and per-iteration time
   and minor-heap allocation of the wirelength and density kernels. The
   largest rung also runs one full vanilla GP for the per-phase self-time
   breakdown and peak RSS. [--cells-max] bounds the ladder (default 100k;
   pass 500000/1000000 for the big rungs). JSON entries (design
   "scale<N>k", labels wl-soa/density-soa/gp) gate in bin/bench_diff. *)

let cells_max = ref 100_000

let scale_section () =
  let ladder = List.filter (fun c -> c <= !cells_max) [ 20_000; 100_000; 500_000; 1_000_000 ] in
  let t =
    Util.Tablefmt.create
      ~title:"SCALE: SoA database ladder (per-iteration kernel ms / minor words)"
      ~headers:[ "Cells"; "Gen s"; "MiB"; "w/cell"; "WL ms"; "WL w"; "Dens ms"; "Dens w" ]
      ~aligns:[ Right; Right; Right; Right; Right; Right; Right; Right ]
  in
  let entry ~design ~label ~runtime ~reps ~minor_words extra =
    Obs.Json.Obj
      [
        ("label", Obs.Json.String label);
        ("name", Obs.Json.String label);
        ("design", Obs.Json.String design);
        ("reps", Obs.Json.Int reps);
        ("runtime", Obs.Json.Float runtime);
        ( "resource",
          Obs.Json.Obj
            (("minor_words", Obs.Json.Float minor_words)
            :: ("ms_per_iter", Obs.Json.Float (runtime /. float_of_int reps *. 1e3))
            :: extra) );
      ]
  in
  List.iter
    (fun cells ->
      Printf.printf "[gen] scale ladder %d cells...\n%!" cells;
      let t0 = Unix.gettimeofday () in
      let d = Workloads.Suite.load_sized ~cells () in
      let gen_s = Unix.gettimeofday () -. t0 in
      let dname = Printf.sprintf "scale%dk" (cells / 1000) in
      let fp = Netlist.Design.footprint d in
      let words_per_cell =
        float_of_int fp.Netlist.Design.total_bytes /. 8.0
        /. float_of_int (Netlist.Design.num_cells d)
      in
      let nc = Netlist.Design.num_cells d in
      let reps = max 3 (3_000_000 / cells) in
      let fr = float_of_int reps in
      (* Best-of-reps: minima discard the noisy reps from the shared box
         entirely (means swung 2x run to run). Word counts carry a few
         words of harness overhead from the boxed
         [Gc.minor_words]/[gettimeofday] results. *)
      let measure f =
        f ();
        (* warm-up: scratch growth, first-touch *)
        let best = ref Float.infinity and words = ref 0.0 in
        for _ = 1 to reps do
          let t0 = Unix.gettimeofday () in
          let w0 = Gc.minor_words () in
          f ();
          let w1 = Gc.minor_words () in
          let t1 = Unix.gettimeofday () in
          if t1 -. t0 < !best then best := t1 -. t0;
          words := !words +. (w1 -. w0)
        done;
        (!best *. fr, !words /. fr)
      in
      (* Kernels exactly as the Nesterov loop drives them. *)
      let ws = Gp.Wirelength.make_ws d in
      let gx = Array.make nc 0.0 and gy = Array.make nc 0.0 in
      let nmov = Netlist.Design.num_movable d in
      let bins =
        let rec pow2 v = if v >= 256 || v * v >= nmov then v else pow2 (2 * v) in
        max 16 (pow2 16)
      in
      let grid = Gp.Densitygrid.create d ~bins_x:bins ~bins_y:bins in
      let wl_s, wl_w =
        measure (fun () ->
            Array.fill gx 0 nc 0.0;
            Array.fill gy 0 nc 0.0;
            ignore (Gp.Wirelength.wa_wirelength_grad_ws ws d ~gamma:4.0 ~gx ~gy))
      in
      let dens_s, dens_w = measure (fun () -> Gp.Densitygrid.update grid d) in
      let rss = float_of_int (Obs.Resource.peak_rss_bytes ()) in
      Util.Tablefmt.add_row t
        [
          string_of_int cells;
          Printf.sprintf "%.1f" gen_s;
          Printf.sprintf "%.1f" (float_of_int fp.Netlist.Design.total_bytes /. 1048576.0);
          Printf.sprintf "%.1f" words_per_cell;
          Printf.sprintf "%.1f" (wl_s /. fr *. 1e3);
          Printf.sprintf "%.0f" wl_w;
          Printf.sprintf "%.1f" (dens_s /. fr *. 1e3);
          Printf.sprintf "%.0f" dens_w;
        ];
      let common =
        [
          ("peak_rss_bytes", Obs.Json.Float rss);
          ("words_per_cell", Obs.Json.Float words_per_cell);
        ]
      in
      extra_entries :=
        entry ~design:dname ~label:"wl-soa" ~runtime:wl_s ~reps ~minor_words:wl_w common
        :: entry ~design:dname ~label:"density-soa" ~runtime:dens_s ~reps ~minor_words:dens_w
             common
        :: !extra_entries)
    ladder;
  Util.Tablefmt.print t;
  print_newline ();
  (* Full vanilla GP on the largest rung: per-phase self times, end-to-end
     wall time, peak RSS — the "place a big design" smoke the CI job
     gates. *)
  match List.rev ladder with
  | [] -> Printf.printf "[scale] ladder empty (--cells-max too small)\n"
  | cells :: _ ->
      let d = Workloads.Suite.load_sized ~cells () in
      let dname = Printf.sprintf "scale%dk" (cells / 1000) in
      Printf.printf "[run] vanilla GP on %s...\n%!" dname;
      let agg = Obs.Agg.create () in
      let ctx = Obs.Ctx.create ~sinks:[ Obs.Agg.sink agg ] () in
      let before = Obs.Resource.sample () in
      let t0 = Unix.gettimeofday () in
      let r = Gp.Globalplace.run ~obs:ctx d in
      let gp_s = Unix.gettimeofday () -. t0 in
      let delta = Obs.Resource.delta ~before ~after:(Obs.Resource.sample ()) in
      Obs.Ctx.close ctx;
      Printf.printf "%s: %d iters, %.1fs, final hpwl %.3e, overflow %.3f\n" dname
        r.Gp.Globalplace.iters gp_s r.Gp.Globalplace.final_hpwl r.Gp.Globalplace.final_overflow;
      Printf.printf "  peak RSS %.0f MiB, %.1fM minor words\n"
        (float_of_int delta.Obs.Resource.peak_rss_bytes /. 1048576.0)
        (delta.Obs.Resource.d_minor_words /. 1e6);
      let self = Obs.Agg.to_self_breakdown agg in
      List.iter
        (fun (n, s) -> if s > 0.01 then Printf.printf "  %-16s %8.3f s self\n" n s)
        self;
      print_newline ();
      extra_entries :=
        Obs.Json.Obj
          [
            ("label", Obs.Json.String "gp");
            ("name", Obs.Json.String "gp");
            ("design", Obs.Json.String dname);
            ("runtime", Obs.Json.Float gp_s);
            ( "resource",
              Obs.Json.Obj
                [
                  ( "peak_rss_bytes",
                    Obs.Json.Float (float_of_int delta.Obs.Resource.peak_rss_bytes) );
                  ("minor_words", Obs.Json.Float delta.Obs.Resource.d_minor_words);
                ] );
            ( "breakdown_self",
              Obs.Json.Obj (List.map (fun (n, s) -> (n, Obs.Json.Float s)) self) );
          ]
        :: !extra_entries

(* ------------------------------------------------------------------ *)
(* Formats: streaming-parser throughput over the sized ladder. Each rung
   serializes a generated design to Bookshelf and LEF/DEF on disk and
   times one cold reparse — MB/s over the on-disk byte count plus minor
   words per cell, the allocation-discipline number the CI sentinel
   gates (a per-line string or per-record boxing regression multiplies
   it). Files are deleted rung by rung so the 1M-cell run stays inside
   a few hundred MB of scratch. *)

let formats_section () =
  let ladder = List.filter (fun c -> c <= !cells_max) [ 20_000; 100_000; 500_000; 1_000_000 ] in
  let t =
    Util.Tablefmt.create ~title:"FORMATS: cold single-pass parse of serialized designs"
      ~headers:[ "Cells"; "Fmt"; "MiB"; "Write s"; "Parse s"; "MB/s"; "w/cell"; "RSS MiB" ]
      ~aligns:[ Right; Left; Right; Right; Right; Right; Right; Right ]
  in
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "etdp_bench_formats_%d" (Unix.getpid ()))
  in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  List.iter
    (fun cells ->
      Printf.printf "[gen] formats ladder %d cells...\n%!" cells;
      let dname = Printf.sprintf "scale%dk" (cells / 1000) in
      (* Serialize both file sets up front, then let the generated design
         die and compact: the timed reparse must see a quiet heap, not
         the generator's garbage (major-slice marking of a 500k-cell
         live design was 4x'ing the measured parse time). *)
      let want_cells, write_s_bs, write_s_def =
        let d = Workloads.Suite.load_sized ~cells () in
        let t0 = Unix.gettimeofday () in
        ignore (Formats.Bookshelf.write ~dir ~stem:"fmt" d);
        let t1 = Unix.gettimeofday () in
        Formats.Lefdef.write
          ~lef_path:(Filename.concat dir "fmt.lef")
          ~def_path:(Filename.concat dir "fmt.def")
          d;
        (Netlist.Design.num_cells d, t1 -. t0, Unix.gettimeofday () -. t1)
      in
      let fcells = float_of_int want_cells in
      let rung label write_s files parse =
        let files = List.filter Sys.file_exists files in
        let bytes =
          List.fold_left (fun a f -> a + (Unix.stat f).Unix.st_size) 0 files |> float_of_int
        in
        Gc.compact ();
        let w0 = Gc.minor_words () in
        let t0 = Unix.gettimeofday () in
        let d' : Netlist.Design.t = parse () in
        let parse_s = Unix.gettimeofday () -. t0 in
        let words = Gc.minor_words () -. w0 in
        if Netlist.Design.num_cells d' <> want_cells then
          failwith (label ^ ": reparse lost cells");
        List.iter Sys.remove files;
        let rss = float_of_int (Obs.Resource.peak_rss_bytes ()) in
        let mb_per_s = bytes /. 1048576.0 /. Float.max 1e-9 parse_s in
        Util.Tablefmt.add_row t
          [
            string_of_int cells;
            label;
            Printf.sprintf "%.1f" (bytes /. 1048576.0);
            Printf.sprintf "%.2f" write_s;
            Printf.sprintf "%.2f" parse_s;
            Printf.sprintf "%.1f" mb_per_s;
            Printf.sprintf "%.1f" (words /. fcells);
            Printf.sprintf "%.0f" (rss /. 1048576.0);
          ];
        extra_entries :=
          Obs.Json.Obj
            [
              ("label", Obs.Json.String label);
              ("name", Obs.Json.String label);
              ("design", Obs.Json.String dname);
              ("runtime", Obs.Json.Float parse_s);
              ( "resource",
                Obs.Json.Obj
                  [
                    ("minor_words", Obs.Json.Float words);
                    ("words_per_cell", Obs.Json.Float (words /. fcells));
                    ("mb_per_s", Obs.Json.Float mb_per_s);
                    ("bytes", Obs.Json.Float bytes);
                    ("peak_rss_bytes", Obs.Json.Float rss);
                  ] );
            ]
          :: !extra_entries
      in
      let at ext = Filename.concat dir ("fmt" ^ ext) in
      rung "bs-parse" write_s_bs
        (List.map at [ ".aux"; ".nodes"; ".nets"; ".pl"; ".scl"; ".cells" ])
        (fun () -> Formats.Bookshelf.read_aux (at ".aux"));
      rung "def-parse" write_s_def
        [ at ".lef"; at ".def" ]
        (fun () -> Formats.Lefdef.read_def ~lef:(Formats.Lefdef.read_lef (at ".lef")) (at ".def")))
    ladder;
  (try Unix.rmdir dir with Unix.Unix_error (_, _, _) -> ());
  Util.Tablefmt.print t;
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Smoke sweep: the regression sentinel's CI workload — two designs x two
   methods, small enough for a PR gate. Deliberately not part of "all";
   pair with [--json] and [bin/bench_diff] against the committed
   goldens/bench_baseline.json. *)

let smoke () =
  let dnames = [ "sb1"; "sb4" ] in
  let methods = [ Tdp.Flow.Vanilla; Tdp.Flow.Efficient Tdp.Config.default ] in
  let t =
    Util.Tablefmt.create
      ~title:"SMOKE: sentinel sweep (TNS x10^3 ps, WNS x10^3 ps, HPWL x10^3, sec)"
      ~headers:[ "Benchmark"; "Method"; "TNS"; "WNS"; "HPWL"; "Runtime" ]
      ~aligns:[ Left; Left; Right; Right; Right; Right ]
  in
  List.iter
    (fun dn ->
      List.iter
        (fun m ->
          match run_flow dn m with
          | Ok (r : Tdp.Flow.result) ->
              Util.Tablefmt.add_row t
                [
                  dn;
                  r.name;
                  f2 (r.metrics.tns /. 1e3);
                  f2 (r.metrics.wns /. 1e3);
                  f1 (r.metrics.hpwl /. 1e3);
                  f2 r.runtime;
                ]
          | Error e ->
              Util.Tablefmt.add_row t
                [ dn; Tdp.Flow.method_name m; "-"; "-"; "-"; Util.Errors.kind e ])
        methods)
    dnames;
  Util.Tablefmt.print t;
  print_newline ()

(* ------------------------------------------------------------------ *)
(* SERVICE: the placement daemon's request engine — the exact dispatch
   path bin/placed serves, driven in process. Measures light-job
   protocol overhead (jobs/sec, latency percentiles over report_timing
   requests against the warm timer) and the incremental path: a warm
   [replace] after a 1% random ECO against the from-scratch [place] of
   the same session. Emits gateable bench-results-v1 entries:
     svc-place    cold place runtime through the engine
     svc-replace  warm replace runtime (resource.speedup_x vs svc-place)
     svc-jobs     total seconds for the report_timing batch
                  (resource.jobs_per_s, p50/p95/p99 ms)                  *)

let service_section () =
  let dname = "sb1" in
  let engine = Service.Engine.create () in
  let req op params = { Service.Protocol.id = "bench"; op; params = Obs.Json.Obj params } in
  let run what r =
    let reply = Service.Engine.handle engine r in
    match Obs.Json.member "ok" reply with
    | Some (Obs.Json.Bool true) -> reply
    | _ -> failwith (Printf.sprintf "service bench %s: %s" what (Obs.Json.to_string reply))
  in
  let timed what r =
    let t0 = Unix.gettimeofday () in
    let reply = run what r in
    (Unix.gettimeofday () -. t0, reply)
  in
  Printf.printf "[service] engine session on %s (scale %.2f)...\n%!" dname !scale;
  ignore
    (run "load"
       (req "load"
          [
            ("suite", Obs.Json.String dname);
            ("name", Obs.Json.String dname);
            ("scale", Obs.Json.Float !scale);
          ]));
  let place_params extra =
    ("design", Obs.Json.String dname)
    :: ("flow", Obs.Json.String "efficient")
    :: ("seed", Obs.Json.Int 1)
    :: extra
  in
  let cold_s, _ = timed "place" (req "place" (place_params [])) in
  let warm_s, _ =
    timed "replace" (req "replace" (place_params [ ("random_frac", Obs.Json.Float 0.01) ]))
  in
  (* Light-job latency: timing queries against the session's warm timer. *)
  let jobs_n = 64 in
  let lat = Array.make jobs_n 0.0 in
  let batch_t0 = Unix.gettimeofday () in
  for i = 0 to jobs_n - 1 do
    let dt, _ =
      timed "report_timing"
        (req "report_timing" [ ("design", Obs.Json.String dname); ("n", Obs.Json.Int 5) ])
    in
    lat.(i) <- dt
  done;
  let batch_s = Unix.gettimeofday () -. batch_t0 in
  Array.sort compare lat;
  let pct q = lat.(min (jobs_n - 1) (int_of_float (Float.ceil (q *. float_of_int jobs_n)) - 1)) in
  let jobs_per_s = float_of_int jobs_n /. Float.max 1e-9 batch_s in
  let speedup = cold_s /. Float.max 1e-9 warm_s in
  let t =
    Util.Tablefmt.create ~title:"SERVICE: daemon engine (placement-as-a-service)"
      ~headers:[ "Job"; "Count"; "Total s"; "p50 ms"; "p95 ms"; "p99 ms"; "jobs/s" ]
      ~aligns:[ Left; Right; Right; Right; Right; Right; Right ]
  in
  Util.Tablefmt.add_row t [ "place (cold)"; "1"; f2 cold_s; "-"; "-"; "-"; "-" ];
  Util.Tablefmt.add_row t
    [ "replace (warm)"; "1"; f2 warm_s; "-"; "-"; "-"; Printf.sprintf "%.1fx faster" speedup ];
  Util.Tablefmt.add_row t
    [
      "report_timing";
      string_of_int jobs_n;
      f2 batch_s;
      f2 (pct 0.5 *. 1e3);
      f2 (pct 0.95 *. 1e3);
      f2 (pct 0.99 *. 1e3);
      f1 jobs_per_s;
    ];
  Util.Tablefmt.print t;
  print_newline ();
  let entry label runtime resource =
    Obs.Json.Obj
      [
        ("label", Obs.Json.String label);
        ("name", Obs.Json.String label);
        ("design", Obs.Json.String dname);
        ("runtime", Obs.Json.Float runtime);
        ("resource", Obs.Json.Obj resource);
      ]
  in
  extra_entries :=
    entry "svc-jobs" batch_s
      [
        ("jobs_per_s", Obs.Json.Float jobs_per_s);
        ("p50_ms", Obs.Json.Float (pct 0.5 *. 1e3));
        ("p95_ms", Obs.Json.Float (pct 0.95 *. 1e3));
        ("p99_ms", Obs.Json.Float (pct 0.99 *. 1e3));
      ]
    :: entry "svc-replace" warm_s [ ("speedup_x", Obs.Json.Float speedup) ]
    :: entry "svc-place" cold_s []
    :: !extra_entries

(* ------------------------------------------------------------------ *)
(* Machine-readable dump of every flow result this invocation ran (the
   BENCH_*.json convention: per-flow runtime, breakdown, tns/wns/hpwl). *)

let dump_json path =
  let entries =
    Hashtbl.fold (fun (dname, label) r acc -> ((dname, label), r) :: acc) flow_results []
    |> List.sort (fun (ka, _) (kb, _) -> compare ka kb)
    |> List.map (fun ((dname, label), outcome) ->
           match outcome with
           | Ok r -> (
               match Tdp.Flow.result_to_json r with
               | Obs.Json.Obj fields ->
                   Obs.Json.Obj (("label", Obs.Json.String label) :: fields)
               | j -> j)
           | Error e ->
               (* Failed entry: enough identity to match against a baseline
                  plus the structured typed error. *)
               Obs.Json.Obj
                 [
                   ("label", Obs.Json.String label);
                   ("name", Obs.Json.String label);
                   ("design", Obs.Json.String dname);
                   ( "error",
                     Obs.Json.Obj
                       (("kind", Obs.Json.String (Util.Errors.kind e))
                       :: ("message", Obs.Json.String (Util.Errors.message e))
                       :: List.map
                            (fun (k, v) -> (k, Obs.Json.String v))
                            (Util.Errors.fields e)) );
                 ])
  in
  let entries = entries @ List.rev !extra_entries in
  let doc =
    Obs.Json.Obj
      [
        ("schema", Obs.Json.String "bench-results-v1");
        ("scale", Obs.Json.Float !scale);
        ("results", Obs.Json.List entries);
      ]
  in
  let oc = open_out path in
  output_string oc (Obs.Json.to_string doc);
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote %d flow results to %s\n" (List.length entries) path

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc = function
    | "--scale" :: v :: rest ->
        scale := float_of_string v;
        parse acc rest
    | "--json" :: v :: rest ->
        json_out := Some v;
        parse acc rest
    | "-domains" :: v :: rest ->
        domains := int_of_string v;
        parse acc rest
    | "--grid-max" :: v :: rest ->
        grid_max := int_of_string v;
        parse acc rest
    | "--cells-max" :: v :: rest ->
        cells_max := int_of_string v;
        parse acc rest
    | x :: rest -> parse (x :: acc) rest
    | [] -> List.rev acc
  in
  let sections = parse [] args in
  let sections =
    if sections = [] || List.mem "all" sections then
      [
        "table1"; "table2"; "table3"; "table4"; "fig3"; "fig4"; "fig5"; "micro"; "scaling"; "ext";
        "stats";
      ]
    else sections
  in
  Util.Parallel.set_num_domains !domains;
  Obs.Log.info "parallel: %d domain(s)" !Util.Parallel.num_domains;
  let t0 = Unix.gettimeofday () in
  Printf.printf "Efficient-TDP benchmark harness (scale %.2f)\n" !scale;
  Printf.printf "sections: %s\n\n%!" (String.concat " " sections);
  List.iter
    (fun s ->
      try
        match s with
        | "table1" -> table1 ()
        | "table2" -> table2 ()
        | "table3" -> table3 ()
        | "table4" -> table4 ()
        | "fig3" -> fig3 ()
        | "fig4" -> fig4 ()
        | "fig5" -> fig5 ()
        | "micro" -> micro ()
        | "scaling" -> scaling ()
        | "spectral" -> spectral ()
        | "ext" -> ext ()
        | "smoke" -> smoke ()
        | "scale" -> scale_section ()
        | "formats" -> formats_section ()
        | "service" -> service_section ()
        | "stats" -> stats_section ()
        | other -> Printf.printf "unknown section %s (skipped)\n" other
      with Util.Errors.Error e ->
        (* Sections that run flows outside the memoised sweep (fig3, ext,
           stats) can still hit a typed failure; drop the section, keep
           the run. *)
        Printf.printf "[fail] section %s aborted: %s (continuing)\n\n%!" s
          (Util.Errors.message e))
    sections;
  (match !json_out with Some path -> dump_json path | None -> ());
  Printf.printf "total bench wall time: %.1fs\n" (Unix.gettimeofday () -. t0)
