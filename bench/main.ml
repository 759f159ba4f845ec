(** Benchmark harness: regenerates every table and figure of the paper's
    evaluation section (see DESIGN.md section 5 for the experiment index).

    Usage:
      dune exec bench/main.exe                      -- everything
      dune exec bench/main.exe -- table1 fig5       -- selected sections
      dune exec bench/main.exe -- --scale 1.0 all   -- bigger designs
      dune exec bench/main.exe -- --json BENCH_results.json table2
      dune exec bench/main.exe -- --domains 4 table2 -- parallel kernels
      dune exec bench/main.exe -- --grid-max 512 spectral -- Poisson engine sweep

    Sections are listed in [sections] below. "all" (the default) runs the
    paper's tables and figures plus scaling, ext and stats; smoke,
    spectral, scale, formats and service are CI gates, run only when
    named. Default design scale is 0.5 (full bench in minutes); 1.0
    doubles the design sizes at ~4x the runtime. [--json FILE] writes
    every flow result and every section's entries as one
    bench-results-v1 document, the input of bin/bench_diff. [--domains N]
    runs the flows with N parallel domains; the [scaling] section sweeps
    its kernels over 1/2/4 domains instead. [--grid-max] bounds the
    spectral grid ladder (default 2048), [--cells-max] the scale and
    formats cell ladders (default 100k). An unknown section or option,
    or a malformed value, exits 2 before any section runs. *)

type opts = {
  scale : float;
  json_out : string option;
  domains : int;
  grid_max : int;
  cells_max : int;
}

(* One memoised flow: its outcome, the placement it left and its wall
   time (the only timing a failed flow has). *)
type memo = {
  outcome : (Tdp.Flow.result, Util.Errors.t) result;
  placement : Netlist.Design.farr * Netlist.Design.farr;
  seconds : float;
}

(* One invocation's state. Designs are generated once and every (design,
   label) flow runs once: Table IV reuses Table II's runs, the figures
   reuse designs. *)
type ctx = {
  o : opts;
  designs : (string, Netlist.Design.t) Hashtbl.t;
  flows : (string * string, memo) Hashtbl.t;
}

(* ------------------------------------------------------------------ *)
(* Measuring, emitting, printing.                                      *)

(* The one measuring loop: [warmup] untimed calls, then [reps] timed
   ones. Returns (seconds, minor words), both summed over the timed reps;
   with [~best:true] the seconds are the fastest rep's times [reps]
   (minima discard the noisy reps of a shared host), so a per-rep figure
   divides by [reps] either way. *)
let measure ?(warmup = 0) ?(best = false) ?(reps = 1) f =
  for _ = 1 to warmup do
    f ()
  done;
  let w0 = Gc.minor_words () in
  let total = ref 0.0 and fastest = ref Float.infinity in
  for _ = 1 to reps do
    let t0 = Unix.gettimeofday () in
    f ();
    let dt = Unix.gettimeofday () -. t0 in
    total := !total +. dt;
    fastest := Float.min !fastest dt
  done;
  ((if best then !fastest *. float_of_int reps else !total), Gc.minor_words () -. w0)

(* The one bench-results-v1 entry constructor. "label" and "name" are
   both the label: bin/bench_diff keys entries by design/label. *)
let entry ~design ~label ~runtime ?reps ~resource ?breakdown_self ?error () =
  let open Obs.Json in
  let floats kvs = Obj (List.map (fun (k, v) -> (k, Float v)) kvs) in
  let opt k f = function Some v -> [ (k, f v) ] | None -> [] in
  let err e =
    Obj
      (("kind", String (Util.Errors.kind e))
      :: ("message", String (Util.Errors.message e))
      :: List.map (fun (k, v) -> (k, String v)) (Util.Errors.fields e))
  in
  Obj
    ([ ("label", String label); ("name", String label); ("design", String design) ]
    @ opt "reps" (fun r -> Int r) reps
    @ [ ("runtime", Float runtime); ("resource", floats resource) ]
    @ opt "breakdown_self" floats breakdown_self
    @ opt "error" err error)

(* A table whose first [left] columns align left and the rest right. *)
let table ?(left = 1) ~title headers =
  Util.Tablefmt.create ~title ~headers
    ~aligns:(List.mapi (fun i _ -> if i < left then Util.Tablefmt.Left else Right) headers)

let print_table t =
  Util.Tablefmt.print t;
  print_newline ()

let f1 = Util.Tablefmt.fmt_float ~prec:1

let f2 = Util.Tablefmt.fmt_float ~prec:2

(* ------------------------------------------------------------------ *)
(* Designs and memoised flows.                                         *)

let design c name =
  match Hashtbl.find_opt c.designs name with
  | Some d -> d
  | None ->
      Printf.printf "[gen] %s (scale %.2f)...\n%!" name c.o.scale;
      let d = Workloads.Suite.load ~scale:c.o.scale name in
      Hashtbl.add c.designs name d;
      d

(* One (design, method) flow, memoised. A cache hit puts the design back
   at the placement that flow left, so a section sees the placement it
   names whatever ran before it. A typed pipeline failure
   ([Util.Errors.Error], e.g. [Diverged] after the rollback budget) is
   recorded as that entry's outcome: the sweep continues and the [--json]
   dump serialises the error. Programmer errors still escape. *)
let run_flow ?key_label c dname meth =
  let label = Option.value key_label ~default:(Tdp.Flow.method_name meth) in
  let d = design c dname in
  match Hashtbl.find_opt c.flows (dname, label) with
  | Some m ->
      Netlist.Design.restore d m.placement;
      m.outcome
  | None ->
      Printf.printf "[run] %-18s on %s...\n%!" label dname;
      let outcome = ref None in
      let seconds, _ =
        measure (fun () ->
            outcome := Some (try Ok (Tdp.Flow.run meth d) with Util.Errors.Error e -> Error e))
      in
      let outcome = Option.get !outcome in
      (match outcome with
      | Ok _ -> ()
      | Error e ->
          Printf.printf "[fail] %-18s on %s: %s (recorded; sweep continues)\n%!" label dname
            (Util.Errors.message e));
      let placement = Netlist.Design.snapshot d in
      Hashtbl.add c.flows (dname, label) { outcome; placement; seconds };
      outcome

(* A flow a section cannot do without: its failure aborts the section. *)
let ok_flow c dname meth =
  match run_flow c dname meth with Ok r -> r | Error e -> raise (Util.Errors.Error e)

let flow_entries c =
  Hashtbl.fold (fun k m acc -> (k, m) :: acc) c.flows []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.map (fun ((design, label), m) ->
         match m.outcome with
         | Ok r -> (
             match Tdp.Flow.result_to_json r with
             | Obs.Json.Obj fields -> Obs.Json.Obj (("label", Obs.Json.String label) :: fields)
             | j -> j)
         | Error e -> entry ~design ~label ~runtime:m.seconds ~resource:[] ~error:e ())

let suite = [ "sb1"; "sb3"; "sb4"; "sb5"; "sb7"; "sb10"; "sb16"; "sb18" ]

(* ------------------------------------------------------------------ *)
(* Tables II-IV: one row per suite design, one column group per run,
   then the Avg Ratio row of every run against the last one (ours).    *)

type col = {
  head : string;
  get : Tdp.Flow.result -> float;
  show : float -> string;
  floor : float; (* bounds the ratio's denominators away from zero *)
  show_ratio : float -> string;
}

let tns_col =
  {
    head = "TNS";
    get = (fun r -> r.metrics.tns);
    show = (fun v -> f2 (v /. 1e3));
    floor = 100.0;
    show_ratio = f2;
  }

let wns_col = { tns_col with head = "WNS"; get = (fun r -> r.metrics.wns) }

let hpwl_col =
  {
    head = "HPWL";
    get = (fun r -> r.metrics.hpwl);
    show = (fun v -> f1 (v /. 1e3));
    floor = 1e-3;
    show_ratio = Printf.sprintf "%.3f";
  }

let runtime_col =
  { head = ""; get = (fun r -> r.runtime); show = f2; floor = 1e-3; show_ratio = f2 }

(* Geometric mean over the designs where both flows succeeded of
   |col run i| / |col ours| (the arithmetic mean would let one almost-met
   design dominate through its tiny denominator). *)
let avg_ratio all i col =
  let pairs =
    List.filter_map
      (fun (_, rs) ->
        match (List.nth rs i, List.nth rs (List.length rs - 1)) with
        | Ok r, Ok o -> Some (col.get r, col.get o)
        | _ -> None)
      all
  in
  let ratio (v, o) = Float.max col.floor (Float.abs v) /. Float.max col.floor (Float.abs o) in
  if pairs = [] then Float.nan else Util.Stats.geomean (Array.of_list (List.map ratio pairs))

let runs_table ~title ~cols runs =
  let all = List.map (fun dn -> (dn, List.map (fun (_, run) -> run dn) runs)) suite in
  let head label =
    List.mapi (fun i c -> if i = 0 then String.trim (label ^ " " ^ c.head) else c.head) cols
  in
  let t = table ~title ("Benchmark" :: List.concat_map (fun (label, _) -> head label) runs) in
  List.iter
    (fun (dn, rs) ->
      Util.Tablefmt.add_row t
        (dn
        :: List.concat_map
             (function
               | Ok r -> List.map (fun c -> c.show (c.get r)) cols
               | Error _ -> List.map (fun _ -> "-") cols)
             rs))
    all;
  Util.Tablefmt.add_sep t;
  Util.Tablefmt.add_row t
    ("Avg Ratio"
    :: List.concat
         (List.mapi (fun i _ -> List.map (fun c -> c.show_ratio (avg_ratio all i c)) cols) runs));
  print_table t

let table2 c =
  runs_table
    ~title:"TABLE II: TNS (x10^3 ps), WNS (x10^3 ps), HPWL (x10^3) across timing-driven placers"
    ~cols:[ tns_col; wns_col; hpwl_col ]
    (List.map
       (fun m -> (Tdp.Flow.method_name m, fun dn -> run_flow c dn m))
       Tdp.Flow.[ Vanilla; Dp4; Diff_tdp; Dist_tdp; Efficient Tdp.Config.default ]);
  []

let table3 c =
  let base = Tdp.Config.default in
  let variant (name, meth) = (name, fun dn -> run_flow ~key_label:("t3:" ^ name) c dn meth) in
  runs_table ~title:"TABLE III: ablation study, TNS (x10^3 ps) and WNS (x10^3 ps)"
    ~cols:[ tns_col; wns_col ]
    (List.map variant
       [
         ("w/ HPWL Loss", Tdp.Flow.Efficient { base with loss = Tdp.Config.Hpwl_like });
         ("w/ Linear Loss", Tdp.Flow.Efficient { base with loss = Tdp.Config.Linear });
         ( "w/ rpt_timing(n)",
           Tdp.Flow.Efficient { base with extraction = Tdp.Config.Global_topn { mult = 1 } } );
         ( "w/ rpt_timing(n*10)",
           Tdp.Flow.Efficient { base with extraction = Tdp.Config.Global_topn { mult = 10 } } );
         ( "w/ rpt_timing_ept(n,10)",
           Tdp.Flow.Efficient { base with extraction = Tdp.Config.Endpoint_based { k = 10 } } );
         ("w/o Path Extraction", Tdp.Flow.Dp4_in_ours);
         ("Our Method", Tdp.Flow.Efficient base);
       ]);
  []

let table4 c =
  runs_table ~title:"TABLE IV: runtime (sec)" ~cols:[ runtime_col ]
    (List.map2
       (fun label m -> (label, fun dn -> run_flow c dn m))
       [ "DREAMPlace"; "DREAMPlace 4.0"; "Our Method" ]
       Tdp.Flow.[ Vanilla; Dp4; Efficient Tdp.Config.default ]);
  []

(* ------------------------------------------------------------------ *)
(* Table I: critical path extraction statistics.                       *)

let table1 c =
  let dname = "sb1" in
  (* Coarse placement: the vanilla flow's global placement result. *)
  ignore (ok_flow c dname Tdp.Flow.Vanilla);
  let timer = Sta.Timer.create ~topology:Sta.Delay.Steiner_tree (design c dname) in
  Sta.Timer.update timer;
  let n = Sta.Timer.num_failing_endpoints timer in
  Printf.printf "\nTable I workload: %s, %d failing endpoints\n" dname n;
  let t =
    table ~left:2 ~title:"TABLE I: timing statistics of critical path extraction methods"
      [ "Command"; "Complexity"; "#Paths"; "#Endpoints"; "#Pin Pairs"; "Time (sec)" ]
  in
  let row name complexity f =
    let paths = ref [] in
    let elapsed, _ = measure (fun () -> paths := f ()) in
    let s = Sta.Timer.stats_of_paths timer !paths ~elapsed in
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
  let rt m =
    row (Printf.sprintf "report_timing(%d)" m) "O(n^2)" (fun () ->
        Sta.Timer.report_timing timer ~n:m)
  in
  let ept k =
    row (Printf.sprintf "report_timing_endpoint(%d,%d)" n k) "O(n*k)" (fun () ->
        Sta.Timer.report_timing_endpoint timer ~n ~k)
  in
  let s1 = rt n in
  ignore (rt (10 * n));
  let s3 = ept 1 in
  ignore (ept 10);
  Util.Tablefmt.print t;
  Printf.printf
    "paper shape: endpoint coverage %d/%d vs %d/%d; speedup rt(n)/rt_ept(n,1) = %.1fx \
     (paper ~6x)\n\n"
    s1.Sta.Report.num_endpoints n s3.Sta.Report.num_endpoints n
    (s1.Sta.Report.elapsed /. Float.max 1e-6 s3.Sta.Report.elapsed);
  []

(* ------------------------------------------------------------------ *)
(* Fig. 3: one critical path under the three distance losses.          *)

let fig3 c =
  let dname = "sb16" in
  Printf.printf "FIG 3: worst critical path of %s optimised under each distance loss\n" dname;
  let base = Tdp.Config.default in
  let losses =
    [
      ("coarse (no timing opt)", None);
      ("HPWL loss", Some { base with loss = Tdp.Config.Hpwl_like });
      ("Linear loss", Some { base with loss = Tdp.Config.Linear });
      ("Quadratic loss (ours)", Some base);
    ]
  in
  let d = design c dname in
  (* Identify the worst endpoint on the coarse (vanilla) placement; track
     the same endpoint across the loss variants. *)
  ignore (ok_flow c dname Tdp.Flow.Vanilla);
  let coarse_timer = Sta.Timer.create d in
  Sta.Timer.update coarse_timer;
  let target_ep =
    match Sta.Timer.critical_path coarse_timer with
    | Some p -> p.Sta.Paths.endpoint
    | None -> failwith "fig3: no critical path"
  in
  let t =
    table ~title:"FIG 3 (quantified): tracked path geometry per loss"
      [ "Loss"; "Path slack (ps)"; "Path WL"; "Max seg"; "Mean seg"; "Seg CV"; "Segments" ]
  in
  let describe name =
    let timer = Sta.Timer.create d in
    Sta.Timer.update timer;
    let graph = Sta.Timer.graph timer in
    match Sta.Timer.worst_path timer ~endpoint:target_ep with
    | None -> ()
    | Some p ->
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
      | None -> ignore (ok_flow c dname Tdp.Flow.Vanilla)
      | Some cfg ->
          Printf.printf "[run] fig3 %-22s on %s...\n%!" name dname;
          ignore (Tdp.Flow.run (Tdp.Flow.Efficient cfg) d));
      describe name)
    losses;
  Util.Tablefmt.print t;
  Printf.printf
    "paper shape: quadratic gives the best slack and the most uniform segments (low CV),\n\
     HPWL/linear leave a few very long segments despite shorter total path WL.\n\n";
  []

(* ------------------------------------------------------------------ *)
(* Fig. 4: runtime breakdown, DP4 vs ours, normalised to DP4 total.    *)

let fig4 c =
  let dname = "sb1" in
  let dp4 = ok_flow c dname Tdp.Flow.Dp4 in
  let ours = ok_flow c dname (Tdp.Flow.Efficient Tdp.Config.default) in
  let total_dp4 = dp4.runtime in
  let t =
    table
      ~title:
        (Printf.sprintf
           "FIG 4: runtime breakdown on %s, normalised to DREAMPlace 4.0 total (%.2fs)" dname
           total_dp4)
      [ "Component"; "DREAMPlace 4.0"; "Our Method" ]
  in
  let get (r : Tdp.Flow.result) names =
    List.fold_left
      (fun acc n -> acc +. Option.value ~default:0.0 (List.assoc_opt n r.breakdown))
      0.0 names
  in
  let share v = Printf.sprintf "%.3f" (v /. total_dp4) in
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
      Util.Tablefmt.add_row t [ label; share a; share b ])
    rows;
  Util.Tablefmt.add_row t
    [ "other"; share (total_dp4 -. !acc_dp4); share (ours.runtime -. !acc_ours) ];
  Util.Tablefmt.add_sep t;
  Util.Tablefmt.add_row t [ "total"; "1.000"; share ours.runtime ];
  print_table t;
  []

(* ------------------------------------------------------------------ *)
(* Fig. 5: optimisation trajectories.                                  *)

let fig5 c =
  let dname = "sb1" in
  let dp4 = ok_flow c dname Tdp.Flow.Dp4 in
  let ours = ok_flow c dname (Tdp.Flow.Efficient Tdp.Config.default) in
  Printf.printf "FIG 5: optimisation trajectory on %s (timing starts at iteration %d)\n" dname
    Tdp.Config.default.timing_start;
  let t =
    table ~left:0 ~title:"per-round metrics; |tns|/|wns| as in the paper's figure"
      [ "iter"; "dp4 hpwl"; "ovf"; "|tns|"; "|wns|"; "ours hpwl"; "ovf"; "|tns|"; "|wns|" ]
  in
  let at curve i = List.find_opt (fun (p : Tdp.Flow.curve_point) -> p.iter = i) curve in
  let iters =
    List.sort_uniq compare
      (List.map (fun (p : Tdp.Flow.curve_point) -> p.iter) (dp4.curve @ ours.curve))
  in
  let cell = function
    | None -> [ "-"; "-"; "-"; "-" ]
    | Some (p : Tdp.Flow.curve_point) ->
        [
          Printf.sprintf "%.0f" p.hpwl;
          f2 p.overflow;
          Printf.sprintf "%.0f" (Float.abs p.tns);
          Printf.sprintf "%.0f" (Float.abs p.wns);
        ]
  in
  List.iter
    (fun i ->
      Util.Tablefmt.add_row t ((string_of_int i :: cell (at dp4.curve i)) @ cell (at ours.curve i)))
    iters;
  Util.Tablefmt.print t;
  Printf.printf
    "paper shape: ours improves TNS/WNS faster and holds them stable; DP4's heavy net\n\
     weights slow HPWL/overflow convergence.\n\n";
  []

(* ------------------------------------------------------------------ *)
(* Scaling: each hot kernel on sb18's vanilla placement at 1/2/4
   domains. One entry per (kernel, domains); the 1-domain rows are the
   per-call kernel costs EXPERIMENTS.md quotes.                        *)

let scaling c =
  let dname = "sb18" in
  let d = design c dname in
  ignore (ok_flow c dname Tdp.Flow.Vanilla);
  let timer = Sta.Timer.create d in
  Sta.Timer.update timer;
  let gx = Array.make (Netlist.Design.num_cells d) 0.0 in
  let gy = Array.make (Netlist.Design.num_cells d) 0.0 in
  let grid = Gp.Densitygrid.create d ~bins_x:64 ~bins_y:64 in
  let electro = Gp.Electro.create grid in
  let n_ep = max 1 (min 64 (Array.length (Sta.Timer.graph timer).Sta.Graph.endpoints)) in
  let n_failing = max 1 (Sta.Timer.num_failing_endpoints timer) in
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
      ( "report_timing(n)",
        n_failing,
        fun () -> ignore (Sta.Timer.report_timing timer ~n:n_failing) );
      ( "report_timing_endpoint(n,1)",
        n_failing,
        fun () -> ignore (Sta.Timer.report_timing_endpoint timer ~n:n_failing ~k:1) );
    ]
  in
  let host_cores = Domain.recommended_domain_count () in
  Printf.printf "SCALING: parallel kernels on %s, host reports %d core(s)\n" dname host_cores;
  let t =
    table ~title:"domain scaling of the parallel hot kernels (speedup vs 1 domain)"
      [ "Kernel"; "n"; "Domains"; "ns/op"; "Speedup" ]
  in
  let entries =
    List.concat_map
      (fun (kname, n, f) ->
        (* The first call warms up and sizes the run to ~0.3 s of calls. *)
        let runs =
          List.map
            (fun dn ->
              Util.Parallel.set_num_domains dn;
              let once, _ = measure f in
              let reps = max 1 (int_of_float (0.3 /. Float.max 1e-9 once)) in
              let s, w = measure ~reps f in
              (dn, reps, s, w, s /. float_of_int reps *. 1e9))
            [ 1; 2; 4 ]
        in
        let base = match runs with (_, _, _, _, ns) :: _ -> ns | [] -> Float.nan in
        List.map
          (fun (dn, reps, s, w, ns) ->
            let speedup = base /. Float.max 1e-9 ns in
            Util.Tablefmt.add_row t
              [
                kname;
                string_of_int n;
                string_of_int dn;
                Printf.sprintf "%.0f" ns;
                Printf.sprintf "%.2fx" speedup;
              ];
            entry ~design:dname ~label:(Printf.sprintf "%s@%d" kname dn) ~runtime:s ~reps
              ~resource:
                [
                  ("n", float_of_int n);
                  ("domains", float_of_int dn);
                  ("host_cores", float_of_int host_cores);
                  ("ns_per_op", ns);
                  ("speedup", speedup);
                  ("minor_words", w);
                ]
              ())
          runs)
      kernels
  in
  Util.Parallel.set_num_domains c.o.domains;
  print_table t;
  entries

(* ------------------------------------------------------------------ *)
(* Extension ablations beyond the paper: design decisions DESIGN.md      *)
(* calls out, plus hold / buffer-candidate side metrics.                 *)

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
        in
        (res.Rctree.Buffering.best_q -. res.Rctree.Buffering.unbuffered_q) :: acc)
      nets []
  in
  if recs = [] then 0.0 else Util.Stats.mean (Array.of_list recs)

let ext c =
  let dnames = [ "sb18"; "sb16"; "sb4" ] in
  (* -- A: stale-pair relaxation and beta (our deviations) -- *)
  let t =
    table ~title:"EXT A: Efficient-TDP variants (TNS x10^3 / WNS x10^3 / HPWL x10^3)"
      ("Variant" :: List.concat_map (fun dn -> [ dn ^ " TNS"; "WNS"; "HPWL" ]) dnames)
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
            let r = Tdp.Flow.run ~topology (Tdp.Flow.Efficient cfg) (design c dn) in
            [ f2 (r.metrics.tns /. 1e3); f2 (r.metrics.wns /. 1e3); f1 (r.metrics.hpwl /. 1e3) ])
          dnames
      in
      Util.Tablefmt.add_row t (vname :: row))
    variants;
  print_table t;
  (* -- B: side metrics per flow on sb1: hold, buffers -- *)
  let t2 =
    table ~title:"EXT B: side metrics on sb1 (hold THS, buffer candidates)"
      [ "Method"; "setup TNS"; "hold THS"; "buf cands"; "max seg"; "buf recovery" ]
  in
  let d = design c "sb1" in
  List.iter
    (fun meth ->
      let r = ok_flow c "sb1" meth in
      let timer = Sta.Timer.create d in
      Sta.Timer.update timer;
      let ws = Evalkit.Wire_stats.of_critical_paths d ~n:30 in
      Util.Tablefmt.add_row t2
        [
          r.name;
          f1 r.metrics.tns;
          f1 (Sta.Timer.ths timer);
          string_of_int ws.Evalkit.Wire_stats.buffer_candidates;
          f1 ws.Evalkit.Wire_stats.max_length;
          f1 (buffering_recovery d timer);
        ])
    Tdp.Flow.[ Vanilla; Dp4; Efficient Tdp.Config.default ];
  print_table t2;
  (* -- C: timing-aware detailed placement as a post-pass -- *)
  let t3 =
    table ~title:"EXT C: refinement post-passes (greedy: TNS-only; SA: TNS + 0.2*HPWL cost)"
      [ "Design"; "TNS start"; "greedy TNS"; "swaps"; "SA TNS"; "SA accepts" ]
  in
  List.iter
    (fun dn ->
      Printf.printf "[run] ext-c refinement on %s...\n%!" dn;
      let d = design c dn in
      ignore (ok_flow c dn (Tdp.Flow.Efficient Tdp.Config.default));
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
  print_table t3;
  []

(* ------------------------------------------------------------------ *)
(* Multi-seed statistics: Table II's headline comparison across 3
   placement seeds, with mean and spread — quantifies the run-to-run
   noise EXPERIMENTS.md cautions about.                                 *)

let stats c =
  let seeds = [ 1; 2; 3 ] in
  let methods = Tdp.Flow.[ Vanilla; Dp4; Efficient Tdp.Config.default ] in
  let t =
    table ~title:"STATS: TNS (x10^3 ps) as mean +- std over 3 placement seeds"
      ("Benchmark" :: List.map Tdp.Flow.method_name methods)
  in
  let wins = ref 0 and total = ref 0 in
  List.iter
    (fun dn ->
      let d = design c dn in
      let cells =
        List.map
          (fun m ->
            Array.of_list
              (List.map
                 (fun seed ->
                   Printf.printf "[run] stats %-18s on %s seed %d...\n%!" (Tdp.Flow.method_name m)
                     dn seed;
                   (Tdp.Flow.run ~seed m d).metrics.tns)
                 seeds))
          methods
      in
      (* Per-seed win count for Efficient-TDP against the best baseline. *)
      List.iteri
        (fun si _ ->
          incr total;
          let ours = (List.nth cells 2).(si) in
          if ours >= Float.max (List.nth cells 0).(si) (List.nth cells 1).(si) then incr wins)
        seeds;
      Util.Tablefmt.add_row t
        (dn
        :: List.map
             (fun a ->
               Printf.sprintf "%.2f +- %.2f" (Util.Stats.mean a /. 1e3)
                 (Util.Stats.stddev a /. 1e3))
             cells))
    [ "sb18"; "sb16"; "sb4"; "sb1" ];
  Util.Tablefmt.print t;
  Printf.printf "Efficient-TDP best or tied in %d/%d (design, seed) pairs\n\n" !wins !total;
  []

(* ------------------------------------------------------------------ *)
(* Spectral engine sweep: per-solve wall time and minor-heap allocation
   of the plan engine (solve + field + energy) over a grid ladder (square
   and non-square). Entries have design "spectral<rows>x<cols>", label
   "plan", and fixed rep counts, so the recorded runtime is
   deterministic work, not a clock budget. *)

let spectral c =
  let all_grids =
    [ (128, 128); (256, 256); (512, 512); (1024, 1024); (2048, 2048); (512, 128); (128, 512) ]
  in
  let grids = List.filter (fun (r, cols) -> max r cols <= c.o.grid_max) all_grids in
  let skipped = List.length all_grids - List.length grids in
  if skipped > 0 then
    Printf.printf "[spectral] --grid-max %d: %d grid(s) skipped\n" c.o.grid_max skipped;
  let t =
    table ~title:"SPECTRAL: Poisson solve+field+energy on the plan engine"
      [ "Grid"; "Reps"; "ms/solve"; "words/solve" ]
  in
  let rng = Util.Rng.create 42 in
  let entries =
    List.map
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
        let dt, dw =
          measure ~warmup:2 ~reps (fun () ->
              Numerics.Poisson.solve_into p ~rho ~psi;
              Numerics.Poisson.field_into p ~psi ~ex ~ey;
              ignore (Numerics.Poisson.energy rho psi))
        in
        let fr = float_of_int reps in
        Util.Tablefmt.add_row t
          [
            Printf.sprintf "%dx%d" rows cols;
            string_of_int reps;
            Printf.sprintf "%.3f" (dt /. fr *. 1e3);
            Printf.sprintf "%.0f" (dw /. fr);
          ];
        entry ~design:(Printf.sprintf "spectral%dx%d" rows cols) ~label:"plan" ~runtime:dt ~reps
          ~resource:
            [
              ("minor_words", dw);
              ("ms_per_solve", dt /. fr *. 1e3);
              ("words_per_solve", dw /. fr);
            ]
          ())
      grids
  in
  print_table t;
  entries

(* ------------------------------------------------------------------ *)
(* Scale: the SoA database on the 100k+ cell ladder. Per rung: design
   generation time, memory footprint (words/cell), and per-iteration time
   and minor-heap allocation of the wirelength and density kernels. The
   largest rung also runs one full vanilla GP for the per-phase self-time
   breakdown and peak RSS. Entries: design "scale<N>k", labels
   wl-soa/density-soa/gp. *)

let ladder c = List.filter (fun n -> n <= c.o.cells_max) [ 20_000; 100_000; 500_000; 1_000_000 ]

let rung_name cells = Printf.sprintf "scale%dk" (cells / 1000)

let scale_section c =
  let t =
    table ~left:0 ~title:"SCALE: SoA database ladder (per-iteration kernel ms / minor words)"
      [ "Cells"; "Gen s"; "MiB"; "w/cell"; "WL ms"; "WL w"; "Dens ms"; "Dens w" ]
  in
  let kernel_entries cells =
    Printf.printf "[gen] scale ladder %d cells...\n%!" cells;
    let d = ref None in
    let gen_s, _ = measure (fun () -> d := Some (Workloads.Suite.load_sized ~cells ())) in
    let d = Option.get !d in
    let fp = Netlist.Design.footprint d in
    let nc = Netlist.Design.num_cells d in
    let words_per_cell = float_of_int fp.Netlist.Design.total_bytes /. 8.0 /. float_of_int nc in
    let reps = max 3 (3_000_000 / cells) in
    let fr = float_of_int reps in
    (* Kernels exactly as the Nesterov loop drives them, best of [reps]
       after a warm-up (scratch growth, first touch). *)
    let ws = Gp.Wirelength.make_ws d in
    let gx = Array.make nc 0.0 and gy = Array.make nc 0.0 in
    let nmov = Netlist.Design.num_movable d in
    let bins =
      let rec pow2 v = if v >= 256 || v * v >= nmov then v else pow2 (2 * v) in
      max 16 (pow2 16)
    in
    let grid = Gp.Densitygrid.create d ~bins_x:bins ~bins_y:bins in
    let kernel f =
      let s, w = measure ~warmup:1 ~best:true ~reps f in
      (s, w /. fr)
    in
    let wl_s, wl_w =
      kernel (fun () ->
          Array.fill gx 0 nc 0.0;
          Array.fill gy 0 nc 0.0;
          ignore (Gp.Wirelength.wa_wirelength_grad_ws ws d ~gamma:4.0 ~gx ~gy))
    in
    let dens_s, dens_w = kernel (fun () -> Gp.Densitygrid.update grid d) in
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
    let kentry label runtime words =
      entry ~design:(rung_name cells) ~label ~runtime ~reps
        ~resource:
          [
            ("minor_words", words);
            ("ms_per_iter", runtime /. fr *. 1e3);
            ("peak_rss_bytes", rss);
            ("words_per_cell", words_per_cell);
          ]
        ()
    in
    [ kentry "wl-soa" wl_s wl_w; kentry "density-soa" dens_s dens_w ]
  in
  let entries = List.concat_map kernel_entries (ladder c) in
  print_table t;
  (* Full vanilla GP on the largest rung: per-phase self times, end-to-end
     wall time, peak RSS — the "place a big design" smoke CI gates. *)
  match List.rev (ladder c) with
  | [] ->
      Printf.printf "[scale] ladder empty (--cells-max too small)\n";
      entries
  | cells :: _ ->
      let d = Workloads.Suite.load_sized ~cells () in
      let dname = rung_name cells in
      Printf.printf "[run] vanilla GP on %s...\n%!" dname;
      let agg = Obs.Agg.create () in
      let obs = Obs.Ctx.create ~sinks:[ Obs.Agg.sink agg ] () in
      let r = ref None in
      let gp_s, words = measure (fun () -> r := Some (Gp.Globalplace.run ~obs d)) in
      let r = Option.get !r in
      let rss = float_of_int (Obs.Resource.peak_rss_bytes ()) in
      Obs.Ctx.close obs;
      Printf.printf "%s: %d iters, %.1fs, final hpwl %.3e, overflow %.3f\n" dname
        r.Gp.Globalplace.iters gp_s r.Gp.Globalplace.final_hpwl r.Gp.Globalplace.final_overflow;
      Printf.printf "  peak RSS %.0f MiB, %.1fM minor words\n" (rss /. 1048576.0) (words /. 1e6);
      let self = Obs.Agg.to_self_breakdown agg in
      List.iter (fun (n, s) -> if s > 0.01 then Printf.printf "  %-16s %8.3f s self\n" n s) self;
      print_newline ();
      entries
      @ [
          entry ~design:dname ~label:"gp" ~runtime:gp_s
            ~resource:[ ("peak_rss_bytes", rss); ("minor_words", words) ]
            ~breakdown_self:self ();
        ]

(* ------------------------------------------------------------------ *)
(* Formats: streaming-parser throughput over the sized ladder. Each rung
   serializes a generated design to Bookshelf and LEF/DEF on disk and
   times one cold reparse — MB/s over the on-disk byte count plus minor
   words per cell, the allocation-discipline number the CI sentinel
   gates (a per-line string or per-record boxing regression multiplies
   it). Files are deleted rung by rung so the 1M-cell run stays inside
   a few hundred MB of scratch. *)

let formats_section c =
  let t =
    table ~left:0 ~title:"FORMATS: cold single-pass parse of serialized designs"
      [ "Cells"; "Fmt"; "MiB"; "Write s"; "Parse s"; "MB/s"; "w/cell"; "RSS MiB" ]
  in
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "etdp_bench_formats_%d" (Unix.getpid ()))
  in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let at ext = Filename.concat dir ("fmt" ^ ext) in
  let rung_entries cells =
    Printf.printf "[gen] formats ladder %d cells...\n%!" cells;
    (* Serialize both file sets up front, then let the generated design
       die and compact: the timed reparse must see a quiet heap, not the
       generator's garbage (major-slice marking of a 500k-cell live
       design was 4x'ing the measured parse time). *)
    let want_cells, write_s_bs, write_s_def =
      let d = Workloads.Suite.load_sized ~cells () in
      let bs_s, _ = measure (fun () -> ignore (Formats.Bookshelf.write ~dir ~stem:"fmt" d)) in
      let def_s, _ =
        measure (fun () -> Formats.Lefdef.write ~lef_path:(at ".lef") ~def_path:(at ".def") d)
      in
      (Netlist.Design.num_cells d, bs_s, def_s)
    in
    let fcells = float_of_int want_cells in
    let rung label write_s files parse =
      let files = List.filter Sys.file_exists files in
      let bytes =
        List.fold_left (fun a f -> a + (Unix.stat f).Unix.st_size) 0 files |> float_of_int
      in
      Gc.compact ();
      let got_cells = ref 0 in
      let parse_s, words =
        measure (fun () -> got_cells := Netlist.Design.num_cells (parse () : Netlist.Design.t))
      in
      if !got_cells <> want_cells then failwith (label ^ ": reparse lost cells");
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
      entry ~design:(rung_name cells) ~label ~runtime:parse_s
        ~resource:
          [
            ("minor_words", words);
            ("words_per_cell", words /. fcells);
            ("mb_per_s", mb_per_s);
            ("bytes", bytes);
            ("peak_rss_bytes", rss);
          ]
        ()
    in
    [
      rung "bs-parse" write_s_bs
        (List.map at [ ".aux"; ".nodes"; ".nets"; ".pl"; ".scl"; ".cells" ])
        (fun () -> Formats.Bookshelf.read_aux (at ".aux"));
      rung "def-parse" write_s_def [ at ".lef"; at ".def" ] (fun () ->
          Formats.Lefdef.read_def ~lef:(Formats.Lefdef.read_lef (at ".lef")) (at ".def"));
    ]
  in
  let entries = List.concat_map rung_entries (ladder c) in
  (try Unix.rmdir dir with Unix.Unix_error (_, _, _) -> ());
  print_table t;
  entries

(* ------------------------------------------------------------------ *)
(* Smoke sweep: the regression sentinel's CI workload — two designs x two
   methods, small enough for a PR gate. Deliberately not part of "all";
   pair with [--json] and [bin/bench_diff] against the committed
   goldens/bench_baseline.json. *)

let smoke c =
  let t =
    table ~left:2 ~title:"SMOKE: sentinel sweep (TNS x10^3 ps, WNS x10^3 ps, HPWL x10^3, sec)"
      [ "Benchmark"; "Method"; "TNS"; "WNS"; "HPWL"; "Runtime" ]
  in
  List.iter
    (fun dn ->
      List.iter
        (fun m ->
          Util.Tablefmt.add_row t
            (dn
            ::
            (match run_flow c dn m with
            | Ok r ->
                [
                  r.name;
                  f2 (r.metrics.tns /. 1e3);
                  f2 (r.metrics.wns /. 1e3);
                  f1 (r.metrics.hpwl /. 1e3);
                  f2 r.runtime;
                ]
            | Error e -> [ Tdp.Flow.method_name m; "-"; "-"; "-"; Util.Errors.kind e ])))
        Tdp.Flow.[ Vanilla; Efficient Tdp.Config.default ])
    [ "sb1"; "sb4" ];
  print_table t;
  []

(* ------------------------------------------------------------------ *)
(* SERVICE: the placement daemon's request engine — the exact dispatch
   path bin/placed serves, driven in process. Measures light-job
   protocol overhead (jobs/sec, latency percentiles over report_timing
   requests against the warm timer) and the incremental path: a warm
   [replace] after a 1% random ECO against the from-scratch [place] of
   the same session. Entries:
     svc-place    cold place runtime through the engine
     svc-replace  warm replace runtime (resource.speedup_x vs svc-place)
     svc-jobs     total seconds for the report_timing batch
                  (resource.jobs_per_s, p50/p95/p99 ms)                  *)

let service_section c =
  let dname = "sb1" in
  let engine = Service.Engine.create () in
  let timed what params =
    let r = { Service.Protocol.id = "bench"; op = what; params = Obs.Json.Obj params } in
    fst
      (measure (fun () ->
           let reply = Service.Engine.handle engine r in
           match Obs.Json.member "ok" reply with
           | Some (Obs.Json.Bool true) -> ()
           | _ -> failwith (Printf.sprintf "service bench %s: %s" what (Obs.Json.to_string reply))))
  in
  Printf.printf "[service] engine session on %s (scale %.2f)...\n%!" dname c.o.scale;
  let design = ("design", Obs.Json.String dname) in
  ignore
    (timed "load"
       [
         ("suite", Obs.Json.String dname);
         ("name", Obs.Json.String dname);
         ("scale", Obs.Json.Float c.o.scale);
       ]);
  let place_params = [ design; ("flow", Obs.Json.String "efficient"); ("seed", Obs.Json.Int 1) ] in
  let cold_s = timed "place" place_params in
  let warm_s = timed "replace" (place_params @ [ ("random_frac", Obs.Json.Float 0.01) ]) in
  (* Light-job latency: timing queries against the session's warm timer. *)
  let jobs_n = 64 in
  let lat = Array.init jobs_n (fun _ -> timed "report_timing" [ design; ("n", Obs.Json.Int 5) ]) in
  let batch_s = Util.Stats.sum lat in
  Array.sort compare lat;
  let pct q =
    1e3 *. lat.(min (jobs_n - 1) (int_of_float (Float.ceil (q *. float_of_int jobs_n)) - 1))
  in
  let jobs_per_s = float_of_int jobs_n /. Float.max 1e-9 batch_s in
  let speedup = cold_s /. Float.max 1e-9 warm_s in
  let t =
    table ~title:"SERVICE: daemon engine (placement-as-a-service)"
      [ "Job"; "Count"; "Total s"; "p50 ms"; "p95 ms"; "p99 ms"; "jobs/s" ]
  in
  Util.Tablefmt.add_row t [ "place (cold)"; "1"; f2 cold_s; "-"; "-"; "-"; "-" ];
  Util.Tablefmt.add_row t
    [ "replace (warm)"; "1"; f2 warm_s; "-"; "-"; "-"; Printf.sprintf "%.1fx faster" speedup ];
  Util.Tablefmt.add_row t
    [
      "report_timing";
      string_of_int jobs_n;
      f2 batch_s;
      f2 (pct 0.5);
      f2 (pct 0.95);
      f2 (pct 0.99);
      f1 jobs_per_s;
    ];
  print_table t;
  let svc label runtime resource = entry ~design:dname ~label ~runtime ~resource () in
  [
    svc "svc-place" cold_s [];
    svc "svc-replace" warm_s [ ("speedup_x", speedup) ];
    svc "svc-jobs" batch_s
      [
        ("jobs_per_s", jobs_per_s);
        ("p50_ms", pct 0.5);
        ("p95_ms", pct 0.95);
        ("p99_ms", pct 0.99);
      ];
  ]

(* ------------------------------------------------------------------ *)
(* Driver.                                                             *)

let sections =
  [
    ("table1", table1);
    ("table2", table2);
    ("table3", table3);
    ("table4", table4);
    ("fig3", fig3);
    ("fig4", fig4);
    ("fig5", fig5);
    ("scaling", scaling);
    ("ext", ext);
    ("stats", stats);
    ("spectral", spectral);
    ("scale", scale_section);
    ("formats", formats_section);
    ("smoke", smoke);
    ("service", service_section);
  ]

let all =
  [ "table1"; "table2"; "table3"; "table4"; "fig3"; "fig4"; "fig5"; "scaling"; "ext"; "stats" ]

exception Usage of string

(* Every argument is checked here, before any section runs. *)
let parse_args args =
  let bad fmt = Printf.ksprintf (fun m -> raise (Usage m)) fmt in
  let pos_int flag v =
    match int_of_string_opt v with
    | Some n when n > 0 -> n
    | _ -> bad "%s: %S is not a positive integer" flag v
  in
  let rec go o names = function
    | [] -> (o, List.rev names)
    | "--scale" :: v :: rest -> (
        match float_of_string_opt v with
        | Some s when Float.is_finite s && s > 0.0 -> go { o with scale = s } names rest
        | _ -> bad "--scale: %S is not a positive number" v)
    | "--json" :: v :: rest -> go { o with json_out = Some v } names rest
    | "--domains" :: v :: rest -> go { o with domains = pos_int "--domains" v } names rest
    | "--grid-max" :: v :: rest -> go { o with grid_max = pos_int "--grid-max" v } names rest
    | "--cells-max" :: v :: rest -> go { o with cells_max = pos_int "--cells-max" v } names rest
    | [ ("--scale" | "--json" | "--domains" | "--grid-max" | "--cells-max") as flag ] ->
        bad "%s needs a value" flag
    | s :: rest when s = "all" || List.mem_assoc s sections -> go o (s :: names) rest
    | s :: _ when String.length s > 0 && s.[0] = '-' -> bad "unknown option %s" s
    | s :: _ -> bad "unknown section %s" s
  in
  let o, names =
    go { scale = 0.5; json_out = None; domains = 1; grid_max = 2048; cells_max = 100_000 } [] args
  in
  (o, if names = [] || List.mem "all" names then all else names)

let () =
  let o, names =
    try parse_args (List.tl (Array.to_list Sys.argv))
    with Usage m ->
      Printf.eprintf
        "%s\n\
         usage: main.exe [--scale F] [--json FILE] [--domains N] [--grid-max N] [--cells-max N] \
         [SECTION...]\n\
         sections: %s all\n"
        m
        (String.concat " " (List.map fst sections));
      exit 2
  in
  let c = { o; designs = Hashtbl.create 8; flows = Hashtbl.create 64 } in
  Util.Parallel.set_num_domains o.domains;
  Obs.Log.info "parallel: %d domain(s)" !Util.Parallel.num_domains;
  Printf.printf "Efficient-TDP benchmark harness (scale %.2f)\n" o.scale;
  Printf.printf "sections: %s\n\n%!" (String.concat " " names);
  let wall, _ =
    measure (fun () ->
        let entries =
          List.concat_map
            (fun s ->
              try (List.assoc s sections) c
              with Util.Errors.Error e ->
                (* A flow a section needs failed, or a section ran a flow
                   outside the memo (fig3, ext, stats): drop the section,
                   keep the run. *)
                Printf.printf "[fail] section %s aborted: %s (continuing)\n\n%!" s
                  (Util.Errors.message e);
                [])
            names
        in
        match o.json_out with
        | None -> ()
        | Some path ->
            let results = flow_entries c @ entries in
            let doc =
              Obs.Json.Obj
                [
                  ("schema", Obs.Json.String "bench-results-v1");
                  ("scale", Obs.Json.Float o.scale);
                  ("results", Obs.Json.List results);
                ]
            in
            let oc = open_out path in
            output_string oc (Obs.Json.to_string doc);
            output_char oc '\n';
            close_out oc;
            Printf.printf "wrote %d results to %s\n" (List.length results) path)
  in
  Printf.printf "total bench wall time: %.1fs\n" wall
