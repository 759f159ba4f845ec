(* The reference-oracle gates: every parallelised kernel differentially
   tested against a naive lib/oracle implementation at 1 and 4 domains,
   the metamorphic property layer, deterministic path-report ordering,
   mutation smoke-checks (injected faults must make the gates fail), and
   the seeded shrinking fuzzer.

   ORACLE_FUZZ_ITERS scales the fuzz budget (nightly CI raises it). *)

open Oracle

let check_ok what = function
  | Ok () -> ()
  | Error m -> Alcotest.failf "%s: %s" what m

let check_err what = function
  | Error _ -> ()
  | Ok () -> Alcotest.failf "%s: expected the gate to fail" what

(* Run a check body under both the sequential and the 4-domain runtime —
   the differential gates must hold regardless of how reductions chunk. *)
let at_domains f =
  Helpers.with_domains 1 f;
  Helpers.with_domains 4 f

(* A generated design with a clock tight enough that many endpoints
   fail — the regime every timing oracle needs. Fresh per call: tests
   mutate the placement. *)
let tight_design () =
  let d =
    Workloads.Generate.generate { Helpers.small_gen_params with name = "oracle"; seed = 7 }
  in
  d.Netlist.Design.clock_period <- 200.0;
  d

(* ------------------------------------------------------------------ *)
(* Differential: STA                                                   *)

let sta_full_diff () =
  at_domains (fun () ->
      let d = tight_design () in
      let timer = Sta.Timer.create d in
      Sta.Timer.update timer;
      let graph = Sta.Timer.graph timer in
      check_ok "arrivals"
        (Compare.check_array_exact ~what:"arrivals" (Sta.Timer.arrivals timer)
           (Ref_sta.arrivals graph));
      let slack = Ref_sta.slacks graph in
      check_ok "slacks" (Compare.check_array_exact ~what:"slacks" (Sta.Timer.slacks timer) slack);
      check_ok "wns"
        (Compare.check_float ~rtol:0.0 ~what:"wns" (Sta.Timer.wns timer)
           (Ref_sta.wns graph ~slack));
      check_ok "tns"
        (Compare.check_float ~rtol:0.0 ~what:"tns" (Sta.Timer.tns timer)
           (Ref_sta.tns graph ~slack)))

(* Random move sequences interleaving update_moved / invalidate / update;
   after every step the timer must agree bitwise with a fresh full
   re-time. *)
let sta_incremental_walk () =
  at_domains (fun () ->
      let d = tight_design () in
      let timer = Sta.Timer.create d in
      Sta.Timer.update timer;
      let rng = Util.Rng.create 2026 in
      let movable = Array.of_list (Netlist.Design.movable_ids d) in
      for step = 1 to 15 do
        let moved = ref [] in
        for _ = 1 to 1 + Util.Rng.int rng 5 do
          let c = Util.Rng.choose rng movable in
          d.Netlist.Design.x.{c} <-
            d.Netlist.Design.x.{c} +. Util.Rng.float_range rng (-40.0) 40.0;
          d.Netlist.Design.y.{c} <-
            d.Netlist.Design.y.{c} +. Util.Rng.float_range rng (-40.0) 40.0;
          moved := c :: !moved
        done;
        Netlist.Design.clamp_movable d;
        (match Util.Rng.int rng 3 with
        | 0 ->
            Sta.Timer.invalidate timer;
            Sta.Timer.update timer
        | _ -> Sta.Timer.update_moved timer ~cells:!moved);
        check_ok (Printf.sprintf "step %d" step) (Ref_sta.check_incremental timer)
      done)

(* The daemon's replace path as a differential gate: a scripted sequence
   of ECO deltas (cell moves interleaved with clock retargets through
   [Sta.Timer.set_clock]) where the incrementally maintained timer must
   match a full-from-scratch analysis after every step. *)
let sta_eco_sequence () =
  at_domains (fun () ->
      let d = tight_design () in
      check_ok "eco sequence"
        (Ref_sta.check_eco_sequence ~steps:6 ~cells_per_step:3 ~seed:3 d));
  (* A design with nothing to move cannot run the drill. *)
  let empty = Helpers.chain_design () in
  List.iter
    (fun c ->
      if Netlist.Design.is_movable empty c then Bytes.set empty.Netlist.Design.movable c '\000')
    (List.init (Netlist.Design.num_cells empty) Fun.id);
  check_err "no movable cells" (Ref_sta.check_eco_sequence empty)

(* ------------------------------------------------------------------ *)
(* Differential: path enumeration and the two extraction commands       *)

let paths_vs_exhaustive () =
  let d = tight_design () in
  let timer = Sta.Timer.create d in
  Sta.Timer.update timer;
  let graph = Sta.Timer.graph timer in
  let eps = Sta.Timer.failing_endpoints timer in
  Alcotest.(check bool) "tight design has failing endpoints" true (eps <> []);
  List.iteri
    (fun i ep ->
      if i < 3 then begin
        let got = Sta.Timer.k_worst timer ~endpoint:ep ~k:7 in
        let want = Ref_paths.k_worst graph ~endpoint:ep ~k:7 in
        check_ok
          (Printf.sprintf "k_worst endpoint %d" ep)
          (Compare.check_paths ~what:"k_worst" got want);
        match (Sta.Timer.worst_path timer ~endpoint:ep, want) with
        | Some p, w :: _ -> check_ok "worst_path" (Compare.check_path ~what:"worst_path" p w)
        | None, [] -> ()
        | _ -> Alcotest.fail "worst_path and exhaustive enumeration disagree"
      end)
    eps

let reports_vs_oracle () =
  at_domains (fun () ->
      let d = tight_design () in
      let timer = Sta.Timer.create d in
      Sta.Timer.update timer;
      let graph = Sta.Timer.graph timer in
      let slack = Sta.Timer.slacks timer in
      let n = min (Sta.Timer.num_failing_endpoints timer) 6 in
      Alcotest.(check bool) "has failing endpoints" true (n > 0);
      check_ok "report_timing"
        (Compare.check_paths ~what:"report_timing"
           (Sta.Timer.report_timing timer ~n)
           (Ref_paths.report_timing graph ~slack ~n));
      check_ok "report_timing_endpoint"
        (Compare.check_paths ~what:"report_timing_endpoint"
           (Sta.Timer.report_timing_endpoint timer ~n ~k:3)
           (Ref_paths.report_timing_endpoint graph ~slack ~n ~k:3)))

(* The timer caches its endpoint ranking until the next re-time. After
   each kind of timing change (an incremental re-time after an ECO move,
   a tighter clock, an invalidate + update after a placement change) a
   warm query must answer from the fresh slacks: every ranking query is
   compared with the reference ranking and enumeration on slacks
   recomputed from the current arc delays. *)
let ranking_never_stale () =
  at_domains (fun () ->
      let d = tight_design () in
      let timer = Sta.Timer.create d in
      Sta.Timer.update timer;
      let graph = Sta.Timer.graph timer in
      let check what =
        let slack = Ref_sta.slacks graph in
        let failing = Ref_paths.failing_endpoints graph ~slack in
        Alcotest.(check bool) (what ^ ": has failing endpoints") true (failing <> []);
        Alcotest.(check (list int))
          (what ^ ": failing_endpoints") failing
          (Sta.Timer.failing_endpoints timer);
        Alcotest.(check int)
          (what ^ ": num_failing_endpoints") (List.length failing)
          (Sta.Timer.num_failing_endpoints timer);
        (match (Sta.Timer.critical_path timer, Ref_paths.endpoints_by_slack graph ~slack) with
        | Some p, e :: _ ->
            check_ok (what ^ ": critical_path")
              (Compare.check_paths ~what:"critical_path" [ p ]
                 (Ref_paths.k_worst graph ~endpoint:e ~k:1))
        | _ -> Alcotest.failf "%s: critical_path disagrees with the reference" what);
        (* Past the failing prefix, so the whole ranking is exercised. *)
        let n = List.length failing + 3 in
        check_ok (what ^ ": report_timing_endpoint")
          (Compare.check_paths ~what:"report_timing_endpoint"
             (Sta.Timer.report_timing_endpoint ~failing_only:false timer ~n ~k:2)
             (Ref_paths.report_timing_endpoint ~failing_only:false graph ~slack ~n ~k:2))
      in
      check "initial";
      let applied = Service.Eco.apply d (Service.Eco.random ~seed:3 ~frac:0.2 d) in
      Sta.Timer.update_moved timer ~cells:applied.Service.Eco.moved;
      check "eco move";
      Sta.Timer.set_clock timer (0.8 *. d.Netlist.Design.clock_period);
      check "tighter clock";
      let rng = Util.Rng.create 11 in
      for id = 0 to Netlist.Design.num_cells d - 1 do
        if Netlist.Design.is_movable d id then
          d.Netlist.Design.x.{id} <- d.Netlist.Design.x.{id} +. Util.Rng.float rng 40.0
      done;
      Netlist.Design.clamp_movable d;
      Sta.Timer.invalidate timer;
      Sta.Timer.update timer;
      check "invalidate + update")

(* A design with one dominant endpoint: po_dom sits behind a chain of
   reconvergent diamonds (2^4 near-critical paths), next to three
   single-path endpoints. The Fig. 3 pathology: pooled report_timing
   spends its budget on po_dom's path cloud, endpoint-based extraction
   covers everything. *)
let dominant_design () =
  let b = Helpers.fresh_builder ~clock_period:10.0 () in
  let pi = Netlist.Builder.add_input_pad b ~cname:"pi" ~x:0.0 ~y:50.0 in
  let connect net cell pin = Netlist.Builder.connect_by_name b ~net ~cell ~pin_name:pin in
  let prev = ref pi and prev_pin = ref "p" in
  for s = 0 to 3 do
    let x0 = 10.0 +. (20.0 *. float_of_int s) in
    let ua =
      Netlist.Builder.add_logic b ~cname:(Printf.sprintf "ua%d" s) ~lib:Helpers.inv ~x:x0 ~y:80.0 ()
    in
    let ub =
      Netlist.Builder.add_logic b ~cname:(Printf.sprintf "ub%d" s) ~lib:Helpers.inv ~x:x0 ~y:20.0 ()
    in
    let um =
      Netlist.Builder.add_logic b
        ~cname:(Printf.sprintf "um%d" s)
        ~lib:Helpers.nand2 ~x:(x0 +. 10.0) ~y:50.0 ()
    in
    let n0 = Netlist.Builder.add_net b ~nname:(Printf.sprintf "d%d_in" s) in
    connect n0 !prev !prev_pin;
    connect n0 ua "a1";
    connect n0 ub "a1";
    let na = Netlist.Builder.add_net b ~nname:(Printf.sprintf "d%d_a" s) in
    connect na ua "o";
    connect na um "a1";
    let nb = Netlist.Builder.add_net b ~nname:(Printf.sprintf "d%d_b" s) in
    connect nb ub "o";
    connect nb um "a2";
    prev := um;
    prev_pin := "o"
  done;
  let po_dom = Netlist.Builder.add_output_pad b ~cname:"po_dom" ~x:100.0 ~y:50.0 in
  let n_out = Netlist.Builder.add_net b ~nname:"dom_out" in
  connect n_out !prev "o";
  connect n_out po_dom "p";
  for i = 0 to 2 do
    let y = 5.0 +. (5.0 *. float_of_int i) in
    let pii =
      Netlist.Builder.add_input_pad b ~cname:(Printf.sprintf "pi%d" i) ~x:0.0 ~y
    in
    let v =
      Netlist.Builder.add_logic b ~cname:(Printf.sprintf "v%d" i) ~lib:Helpers.inv ~x:50.0 ~y ()
    in
    let po = Netlist.Builder.add_output_pad b ~cname:(Printf.sprintf "po%d" i) ~x:100.0 ~y in
    let n1 = Netlist.Builder.add_net b ~nname:(Printf.sprintf "side%d_a" i) in
    connect n1 pii "p";
    connect n1 v "a1";
    let n2 = Netlist.Builder.add_net b ~nname:(Printf.sprintf "side%d_b" i) in
    connect n2 v "o";
    connect n2 po "p"
  done;
  Netlist.Builder.finish b

let covered_endpoints paths =
  List.sort_uniq compare (List.map (fun (p : Sta.Paths.path) -> p.Sta.Paths.endpoint) paths)

let endpoint_contracts () =
  let d = dominant_design () in
  let timer = Sta.Timer.create d in
  Sta.Timer.update timer;
  let graph = Sta.Timer.graph timer in
  let slack = Sta.Timer.slacks timer in
  let n = Sta.Timer.num_failing_endpoints timer in
  Alcotest.(check int) "all four endpoints fail" 4 n;
  let k = 2 in
  let got = Sta.Timer.report_timing_endpoint timer ~n ~k in
  (* Contract: at most n*k paths, no duplicates. *)
  Alcotest.(check bool) "at most n*k paths" true (List.length got <= n * k);
  let keys =
    List.map
      (fun (p : Sta.Paths.path) ->
        (p.Sta.Paths.endpoint, Array.to_list p.Sta.Paths.pins))
      got
  in
  Alcotest.(check int) "no duplicate paths" (List.length keys)
    (List.length (List.sort_uniq compare keys));
  (* Contract: per endpoint, exactly its k worst paths in order. *)
  List.iter
    (fun ep ->
      let mine =
        List.filter (fun (p : Sta.Paths.path) -> p.Sta.Paths.endpoint = ep) got
      in
      check_ok
        (Printf.sprintf "per-endpoint k-worst of %d" ep)
        (Compare.check_paths ~what:"per-endpoint" mine (Ref_paths.k_worst graph ~endpoint:ep ~k)))
    (covered_endpoints got);
  (* Coverage: endpoint-based covers every failing endpoint; the pooled
     command concentrates on the dominant one. *)
  let failing = Ref_paths.failing_endpoints graph ~slack in
  Alcotest.(check (list int))
    "endpoint extraction covers all failing endpoints"
    (List.sort compare failing)
    (covered_endpoints got);
  let pooled = Sta.Timer.report_timing timer ~n in
  Alcotest.(check bool) "pooled concentrates on the dominant endpoint" true
    (List.length (covered_endpoints pooled) < List.length (covered_endpoints got))

(* Slack ties: the dominant design's three side chains have identical
   relative geometry, so their single paths carry bitwise-equal slacks.
   The report order must still be a strict total order (tie-break on
   endpoint pin id), identical across reruns and domain counts. *)
let tie_break_determinism () =
  let d = dominant_design () in
  let run_at nd =
    Helpers.with_domains nd (fun () ->
        let timer = Sta.Timer.create d in
        Sta.Timer.update timer;
        Sta.Timer.report_timing timer ~n:20)
  in
  let a = run_at 1 and b = run_at 1 and c = run_at 4 in
  check_ok "rerun stable" (Compare.check_paths ~what:"rerun" a b);
  check_ok "domain-count stable" (Compare.check_paths ~what:"domains" a c);
  (* The tie actually exists: some slack value repeats bitwise. *)
  let slacks = List.map (fun (p : Sta.Paths.path) -> p.Sta.Paths.slack) a in
  Alcotest.(check bool) "exact slack ties present" true
    (List.length (List.sort_uniq compare slacks) < List.length slacks);
  (* And the list is strictly increasing in the documented total order. *)
  let rec strictly_sorted = function
    | p :: (q :: _ as rest) ->
        Sta.Paths.compare_by_slack p q < 0 && strictly_sorted rest
    | _ -> true
  in
  Alcotest.(check bool) "strict compare_by_slack order" true (strictly_sorted a)

(* ------------------------------------------------------------------ *)
(* Differential: Elmore, spectral kernels, density, gradients           *)

let elmore_diff () =
  let d = Lazy.force Helpers.small_generated in
  let seen = ref 0 in
  for nid = 0 to Netlist.Design.num_nets d - 1 do
    if Netlist.Design.net_degree d nid >= 2 && !seen < 10 then begin
      incr seen;
      let pids = Netlist.Design.net_pins d nid in
      let xs = Array.map (fun pid -> Netlist.Design.pin_x d pid) pids in
      let ys = Array.map (fun pid -> Netlist.Design.pin_y d pid) pids in
      let term_cap i = d.Netlist.Design.pin_cap.{pids.(i)} in
      let r = d.Netlist.Design.r_per_unit and c = d.Netlist.Design.c_per_unit in
      List.iter
        (fun tree ->
          check_ok (Printf.sprintf "net %d" nid) (Ref_elmore.check tree ~r ~c ~term_cap);
          check_ok
            (Printf.sprintf "net %d monotone" nid)
            (Metamorphic.elmore_monotone ~lambda:1.7 tree ~r ~c ~term_cap))
        [ Rctree.Steiner.steiner ~xs ~ys; Rctree.Steiner.star ~xs ~ys ]
    end
  done;
  Alcotest.(check bool) "sampled some nets" true (!seen > 0)

let numerics_diff () =
  at_domains (fun () ->
      let rng = Util.Rng.create 11 in
      let x = Array.init 32 (fun _ -> Util.Rng.float_range rng (-1.0) 1.0) in
      let n = Array.length x in
      let coeffs = Helpers.plan_dct x ~rows:1 ~cols:n in
      check_ok "dct2"
        (Compare.check_array ~rtol:1e-9 ~atol:1e-9 ~what:"dct2" coeffs
           (Ref_numerics.dct2_direct x));
      check_ok "idct2"
        (Compare.check_array ~rtol:1e-9 ~atol:1e-9 ~what:"idct2"
           (Helpers.plan_dct ~inverse:true coeffs ~rows:1 ~cols:n)
           (Ref_numerics.idct2_direct coeffs));
      let rows = 16 and cols = 16 in
      let grid = Array.init (rows * cols) (fun _ -> Util.Rng.float_range rng (-1.0) 1.0) in
      check_ok "dct2_2d"
        (Compare.check_array ~rtol:1e-9 ~atol:1e-8 ~what:"dct2_2d"
           (Helpers.plan_dct grid ~rows ~cols)
           (Ref_numerics.dct2_2d_direct grid ~rows ~cols));
      let rho = grid in
      let p = Numerics.Poisson.create ~rows ~cols in
      let psi = Numerics.Poisson.solve p rho in
      check_ok "poisson solve"
        (Compare.check_array ~rtol:1e-9 ~atol:1e-8 ~what:"psi" psi
           (Ref_numerics.poisson_solve_direct rho ~rows ~cols));
      check_ok "poisson residual"
        (Ref_numerics.check_poisson_residual ~rho ~psi ~rows ~cols ());
      let ex, ey = Numerics.Poisson.field p psi in
      let rex, rey = Ref_numerics.field_direct psi ~rows ~cols in
      check_ok "field ex" (Compare.check_array ~rtol:1e-9 ~atol:1e-9 ~what:"ex" ex rex);
      check_ok "field ey" (Compare.check_array ~rtol:1e-9 ~atol:1e-9 ~what:"ey" ey rey);
      check_ok "energy"
        (Compare.check_float ~rtol:1e-9 ~atol:1e-12 ~what:"energy"
           (Numerics.Poisson.energy rho psi)
           (Ref_numerics.energy_direct rho psi));
      (* Packed real-even plan engine vs direct summation: the packed
         pair kernels at the sizes the satellite names, then full 2D
         gates on square and both non-square orientations. *)
      List.iter
        (fun n ->
          let a = Array.init n (fun _ -> Util.Rng.float_range rng (-1.0) 1.0) in
          let b = Array.init n (fun _ -> Util.Rng.float_range rng (-1.0) 1.0) in
          let plan = Numerics.Plan.create ~rows:2 ~cols:n in
          let xa = Array.make n 0.0 and xb = Array.make n 0.0 in
          Numerics.Plan.dct2_pair plan ~a ~b ~xa ~xb;
          check_ok "plan pair A"
            (Compare.check_array ~rtol:1e-9 ~atol:1e-8
               ~what:(Printf.sprintf "plan.dct2_pair A n=%d" n)
               xa (Ref_numerics.dct2_direct a));
          check_ok "plan pair B"
            (Compare.check_array ~rtol:1e-9 ~atol:1e-8
               ~what:(Printf.sprintf "plan.dct2_pair B n=%d" n)
               xb (Ref_numerics.dct2_direct b));
          let ra = Array.make n 0.0 and rb = Array.make n 0.0 in
          Numerics.Plan.idct2_pair plan ~xa ~xb ~a:ra ~b:rb;
          check_ok "plan pair inverse A"
            (Compare.check_array ~rtol:1e-9 ~atol:1e-9
               ~what:(Printf.sprintf "plan.idct2_pair A n=%d" n)
               ra a);
          check_ok "plan pair inverse B"
            (Compare.check_array ~rtol:1e-9 ~atol:1e-9
               ~what:(Printf.sprintf "plan.idct2_pair B n=%d" n)
               rb b))
        [ 2; 4; 8; 64; 256 ];
      List.iter
        (fun (rows, cols) ->
          let g =
            Array.init (rows * cols) (fun _ -> Util.Rng.float_range rng (-1.0) 1.0)
          in
          check_ok "plan dct2_2d" (Ref_numerics.check_dct2_2d g ~rows ~cols);
          check_ok "plan idct2_2d" (Ref_numerics.check_idct2_2d g ~rows ~cols);
          check_ok "plan poisson" (Ref_numerics.check_poisson_solve g ~rows ~cols))
        [ (16, 16); (64, 256); (256, 64) ])

let density_electro_diff () =
  at_domains (fun () ->
      let d = Lazy.force Helpers.small_generated in
      let grid = Gp.Densitygrid.create d ~bins_x:16 ~bins_y:16 in
      Gp.Densitygrid.update grid d;
      check_ok "density"
        (Compare.check_array ~rtol:1e-9 ~atol:1e-9 ~what:"density"
           grid.Gp.Densitygrid.density (Ref_place.density_direct d grid));
      check_ok "density mass" (Metamorphic.density_mass d grid);
      let e = Gp.Electro.create grid in
      Gp.Electro.solve e ~target_density:0.9;
      let charge = Gp.Densitygrid.charge grid ~target_density:0.9 in
      check_ok "electro energy"
        (Compare.check_float ~rtol:1e-9 ~atol:1e-9 ~what:"energy"
           (Numerics.Poisson.energy e.Gp.Electro.rho e.Gp.Electro.psi)
           (Ref_numerics.energy_direct charge e.Gp.Electro.psi));
      let nc = Netlist.Design.num_cells d in
      let gx = Array.make nc 0.0 and gy = Array.make nc 0.0 in
      Gp.Electro.add_grad e d ~gx ~gy;
      let egx, egy = Ref_place.electro_grad_expected e d in
      check_ok "electro gx"
        (Compare.check_array ~rtol:1e-9 ~atol:1e-9 ~what:"gx" gx egx);
      check_ok "electro gy"
        (Compare.check_array ~rtol:1e-9 ~atol:1e-9 ~what:"gy" gy egy))

let wirelength_diff () =
  at_domains (fun () ->
      let d = Lazy.force Helpers.small_generated in
      check_ok "hpwl"
        (Compare.check_float ~rtol:1e-9 ~what:"hpwl" (Gp.Wirelength.weighted_hpwl d)
           (Ref_place.hpwl_direct d));
      let nc = Netlist.Design.num_cells d in
      let gx = Array.make nc 0.0 and gy = Array.make nc 0.0 in
      let wa = Gp.Wirelength.wa_wirelength_grad d ~gamma:8.0 ~gx ~gy in
      check_ok "wa value"
        (Compare.check_float ~rtol:1e-9 ~atol:1e-9 ~what:"wa" wa
           (Ref_place.wa_value d ~gamma:8.0));
      let cells = List.filteri (fun i _ -> i < 5) (Netlist.Design.movable_ids d) in
      check_ok "wa gradient fd" (Ref_place.wa_fd_check d ~gamma:8.0 ~cells))

let pin_attract_checks () =
  let d = tight_design () in
  let timer = Sta.Timer.create d in
  Sta.Timer.update timer;
  let graph = Sta.Timer.graph timer in
  let n = min (Sta.Timer.num_failing_endpoints timer) 8 in
  Alcotest.(check bool) "has failing endpoints" true (n > 0);
  let paths = Sta.Timer.report_timing_endpoint timer ~n ~k:3 in
  let wns = Sta.Timer.wns timer in
  let attract = Tdp.Pin_attract.create d ~loss:Tdp.Config.Quadratic in
  Tdp.Pin_attract.update_from_paths attract graph ~w0:1.0 ~w1:0.5 ~wns ~stale_decay:1.0 paths;
  (* Eq. 9: the accumulated pair weights must replay exactly. *)
  check_ok "eq9 accumulation"
    (Metamorphic.eq9_accumulation graph attract ~w0:1.0 ~w1:0.5 ~wns paths);
  Alcotest.(check bool) "extraction produced pairs" true (Tdp.Pin_attract.num_pairs attract > 0);
  (* Gradient of the pair loss vs finite differences of its value. *)
  let cells = List.filteri (fun i _ -> i < 5) (Netlist.Design.movable_ids d) in
  check_ok "pin attract fd" (Ref_place.pin_attract_fd_check d attract ~cells)

(* Shared arcs accumulate: both diamond paths cross the pi->branch net
   and the merge->po net, so those pairs must carry w0 + w1*s2/wns while
   unshared branch arcs stay at w0. *)
let eq9_shared_arc () =
  let d = Helpers.diamond_design () in
  d.Netlist.Design.clock_period <- 1.0;
  let timer = Sta.Timer.create d in
  Sta.Timer.update timer;
  let graph = Sta.Timer.graph timer in
  let paths = Sta.Timer.report_timing_endpoint timer ~n:1 ~k:2 in
  Alcotest.(check int) "both diamond paths extracted" 2 (List.length paths);
  let wns = Sta.Timer.wns timer in
  let w0 = 2.0 and w1 = 0.25 in
  let attract = Tdp.Pin_attract.create d ~loss:Tdp.Config.Quadratic in
  Tdp.Pin_attract.update_from_paths attract graph ~w0 ~w1 ~wns ~stale_decay:1.0 paths;
  check_ok "eq9 on diamond" (Metamorphic.eq9_accumulation graph attract ~w0 ~w1 ~wns paths);
  let s2 = (List.nth paths 1).Sta.Paths.slack in
  let weights =
    Tdp.Pin_attract.fold_pairs attract ~init:[] ~f:(fun acc ~pin_i:_ ~pin_j:_ ~weight ->
        weight :: acc)
  in
  let shared = List.filter (fun w -> Compare.float_eq ~rtol:1e-9 w (w0 +. (w1 *. s2 /. wns))) weights in
  let unshared = List.filter (fun w -> Compare.float_eq ~rtol:1e-9 w w0) weights in
  (* Only the merge->po arc lies on both paths; the pi fan-out and the
     two branch nets are distinct (driver, sink) pairs. *)
  Alcotest.(check int) "total pairs" 5 (List.length weights);
  Alcotest.(check int) "one shared pair" 1 (List.length shared);
  Alcotest.(check int) "four unshared pairs" 4 (List.length unshared)

(* ------------------------------------------------------------------ *)
(* Metamorphic layer                                                   *)

let metamorphic_wirelength () =
  let d = Lazy.force Helpers.small_generated in
  check_ok "translation"
    (Metamorphic.wirelength_translation d ~gamma:8.0 ~dx:13.25 ~dy:(-7.5));
  check_ok "wa bounds" (Metamorphic.wa_bounds d ~gamma:8.0);
  check_ok "transpose" (Metamorphic.transpose_consistent d ~gamma:8.0 ~bins:16)

let metamorphic_tns_wns () =
  let d = tight_design () in
  check_ok "generated" (Metamorphic.tns_wns_consistent (Sta.Timer.create d));
  let d2 = Helpers.chain_design () in
  check_ok "chain" (Metamorphic.tns_wns_consistent (Sta.Timer.create d2))

(* ------------------------------------------------------------------ *)
(* Mutation smoke-checks: corrupted results must trip the gates.        *)

let mutation_elmore () =
  let xs = [| 0.0; 30.0; 55.0; 80.0 |] and ys = [| 0.0; 40.0; 10.0; 60.0 |] in
  let tree = Rctree.Steiner.steiner ~xs ~ys in
  let term_cap _ = 1.5 in
  check_ok "clean tree passes" (Ref_elmore.check tree ~r:0.1 ~c:0.2 ~term_cap);
  (* A sign fault and a small constant fault in the production delays
     both must be caught. *)
  let corrupted f =
    let prod = Rctree.Elmore.compute tree ~r:0.1 ~c:0.2 ~term_cap in
    let sink_delay = Array.map f prod.Rctree.Elmore.sink_delay in
    Ref_elmore.check_result { prod with Rctree.Elmore.sink_delay } tree ~r:0.1 ~c:0.2 ~term_cap
  in
  check_err "sign fault caught" (corrupted (fun dl -> -.dl));
  check_err "constant fault caught" (corrupted (fun dl -> dl +. 1e-3));
  (* And the full-STA differential must catch it end to end: a faulty
     delay model shifts production arrivals, while the DFS oracle and the
     fresh re-time inside check_incremental read the same faulty arc
     delays — so the catching layer is the independent Elmore walk above,
     plus the golden gate. Verify the sign fault also breaks the timing
     metamorphic TNS recomputation on a real design. *)
  let d = tight_design () in
  let timer = Sta.Timer.create d in
  Sta.Timer.update timer;
  let clean_tns = Sta.Timer.tns timer in
  (* Atomic: the delay pass may run the fault on several domains. *)
  let faulted = Atomic.make 0 in
  let timer2 =
    Sta.Timer.create
      ~fault:(fun dl ->
        Atomic.incr faulted;
        -.dl)
      d
  in
  Sta.Timer.update timer2;
  Alcotest.(check bool) "sign fault applied" true (Atomic.get faulted > 0);
  Alcotest.(check bool) "sign fault changes TNS" true
    (not (Compare.float_eq ~rtol:1e-9 clean_tns (Sta.Timer.tns timer2)))

let mutation_wa_grad () =
  let d = Lazy.force Helpers.small_generated in
  let cells = List.filteri (fun i _ -> i < 3) (Netlist.Design.movable_ids d) in
  check_ok "clean gradient passes" (Ref_place.wa_fd_check d ~gamma:8.0 ~cells);
  let corrupted f =
    let nc = Netlist.Design.num_cells d in
    let gx = Array.make nc 0.0 and gy = Array.make nc 0.0 in
    ignore (Gp.Wirelength.wa_wirelength_grad d ~gamma:8.0 ~gx ~gy);
    Ref_place.fd_check_cells d ~cells
      ~value:(fun () -> Ref_place.wa_value d ~gamma:8.0)
      ~gx:(Array.map f gx) ~gy:(Array.map f gy) ~what:"wa"
  in
  check_err "sign fault caught" (corrupted (fun g -> -.g));
  check_err "scale fault caught" (corrupted (fun g -> g *. 1.05))

(* ------------------------------------------------------------------ *)
(* Fuzz driver                                                         *)

let fuzz_iters () =
  match Sys.getenv_opt "ORACLE_FUZZ_ITERS" with
  | Some s -> ( match int_of_string_opt s with Some n when n > 0 -> n | _ -> 2)
  | None -> 2

let fuzz_battery () =
  let dump_dir = Sys.getenv_opt "ORACLE_DUMP_DIR" in
  let failures = Fuzz.run ?dump_dir ~iters:(fuzz_iters ()) ~seed:42 Fuzz.default_props in
  match failures with
  | [] -> ()
  | f :: _ ->
      Alcotest.failf "%d failure(s); first: %s on {%s}%s" (List.length failures) f.Fuzz.prop_name
        (Fuzz.params_to_string f.Fuzz.params)
        (match f.Fuzz.dump with None -> "" | Some p -> " dumped to " ^ p)

(* The shrinker must drive a planted size-triggered failure down to its
   minimal parameters. *)
let fuzz_shrinker () =
  let planted =
    {
      Fuzz.name = "planted";
      check =
        (fun d ->
          if Netlist.Design.num_cells d > 120 then Error "too big" else Ok ());
    }
  in
  let p0 =
    { Helpers.small_gen_params with Workloads.Genparams.num_comb = 280; num_ff = 50 }
  in
  (match Fuzz.check_params planted p0 with
  | Ok () -> Alcotest.fail "planted prop should fail on the seed params"
  | Error _ -> ());
  let small, msg = Fuzz.shrink planted p0 in
  Alcotest.(check string) "message preserved" "too big" msg;
  (* Still failing, and no shrink candidate of the result fails. *)
  (match Fuzz.check_params planted small with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "shrunk params must still fail");
  Alcotest.(check bool) "shrunk below the seed size" true
    (small.Workloads.Genparams.num_comb < p0.Workloads.Genparams.num_comb);
  (* Determinism: shrinking again lands on the same parameters. *)
  let small2, _ = Fuzz.shrink planted p0 in
  Alcotest.(check string) "shrink deterministic"
    (Fuzz.params_to_string small)
    (Fuzz.params_to_string small2)

let fuzz_dump () =
  Helpers.with_temp_dir @@ fun dir ->
  (* Fails on any design with a macro, so the shrunk counterexample keeps
     one: macro corners are non-dyadic fractions of the die, which a
     fixed-precision text dump would round. *)
  let has_macro d =
    List.exists
      (fun i -> Netlist.Design.kind d i = Netlist.Design.Blockage)
      (List.init (Netlist.Design.num_cells d) Fun.id)
  in
  let planted =
    {
      Fuzz.name = "has-macro";
      check = (fun d -> if has_macro d then Error "planted failure" else Ok ());
    }
  in
  match Fuzz.run ~dump_dir:dir ~iters:1 ~seed:2 [ planted ] with
  | [ f ] -> (
      Alcotest.(check string) "prop name" "has-macro" f.Fuzz.prop_name;
      match f.Fuzz.dump with
      | Some path ->
          Alcotest.(check bool) "design dump exists" true (Sys.file_exists path);
          Alcotest.(check bool) "parameters dumped" true
            (Sys.file_exists (Filename.chop_suffix path ".aux" ^ ".txt"));
          (* The dump reproduces the counterexample bit for bit. *)
          let want = Workloads.Generate.generate f.Fuzz.params in
          let got = Formats.Auto.load path in
          let bits = Int64.bits_of_float in
          Alcotest.(check int64) "clock_period bitwise" (bits want.clock_period)
            (bits got.clock_period);
          Alcotest.(check int) "cells" (Netlist.Design.num_cells want)
            (Netlist.Design.num_cells got);
          for i = 0 to Netlist.Design.num_cells want - 1 do
            if bits want.x.{i} <> bits got.x.{i} || bits want.y.{i} <> bits got.y.{i} then
              Alcotest.failf "cell %d position differs after reload" i
          done
      | None -> Alcotest.fail "expected a dump path")
  | fs -> Alcotest.failf "expected exactly one failure, got %d" (List.length fs)

(* ------------------------------------------------------------------ *)
(* Golden harness                                                      *)

let golden_policy () =
  let open Obs.Json in
  let base = Obj [ ("a", Int 3); ("b", Float 1.0); ("s", String "x") ] in
  Alcotest.(check (list string)) "identical" []
    (Golden.compare_json ~path:"t" ~golden:base ~got:base);
  Alcotest.(check (list string)) "float within tolerance" []
    (Golden.compare_json ~path:"t" ~golden:(Float 1.0) ~got:(Float (1.0 +. 1e-9)));
  Alcotest.(check bool) "float beyond tolerance flagged" true
    (Golden.compare_json ~path:"t" ~golden:(Float 1.0) ~got:(Float 1.1) <> []);
  Alcotest.(check bool) "int drift flagged" true
    (Golden.compare_json ~path:"t" ~golden:(Int 3) ~got:(Int 4) <> []);
  Alcotest.(check bool) "missing field flagged" true
    (Golden.compare_json ~path:"t" ~golden:base ~got:(Obj [ ("a", Int 3) ]) <> [])

let golden_roundtrip () =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "oracle_golden_test" in
  let entries =
    [ { Golden.source = Golden.Suite { short = "sb1"; scale = 0.05 }; method_ = Tdp.Flow.Vanilla } ]
  in
  let files = Golden.regen ~dir entries in
  Alcotest.(check int) "one golden written" 1 (List.length files);
  check_ok "freshly regenerated goldens pass --check"
    (match Golden.check ~dir entries with
    | Ok () -> Ok ()
    | Error msgs -> Error (String.concat "; " msgs));
  (* Tampering must be detected. *)
  let file = List.hd files in
  let oc = open_out file in
  output_string oc "{\"design\":\"sb1\"}";
  close_out oc;
  (match Golden.check ~dir entries with
  | Ok () -> Alcotest.fail "tampered golden must fail --check"
  | Error _ -> ());
  (* A missing design file is a typed failure, not a skipped entry. *)
  let missing =
    {
      Golden.source = Golden.File { stem = "gone"; path = "/nonexistent/gone.aux" };
      method_ = Tdp.Flow.Vanilla;
    }
  in
  let stub = Filename.concat dir (Golden.entry_name missing ^ ".json") in
  Helpers.write_file stub "{}";
  (match Golden.check ~dir [ missing ] with
  | _ -> Alcotest.fail "missing design file must raise"
  | exception Util.Errors.Error (Util.Errors.Parse_failed { file; _ }) ->
      Alcotest.(check string) "names the file" "/nonexistent/gone.aux" file);
  List.iter Sys.remove (stub :: files);
  if Sys.file_exists dir then Sys.rmdir dir

(* ---- detailed placement vs the list-based reference ---- *)

(* A random small design, globally placed for a random number of
   iterations and legalized, plus random sweep parameters. Low
   utilization leaves gaps between legal cells, so windows are packed;
   the generator's few library cells give many equal-width neighbours in
   a row, and its local nets join neighbours, so swap candidates share
   nets. [detailed_coverage] checks that the draws hit all three. *)
type detailed_case = {
  seed : int;
  comb : int;
  util : float;
  iters : int;
  window : int;
  passes : int;
  k : int;
}

let detailed_case_gen =
  QCheck.Gen.(
    map
      (fun ((seed, comb, util), (iters, window, passes, k)) -> { seed; comb; util; iters; window; passes; k })
      (pair
         (triple (int_range 1 1_000_000) (int_range 20 120) (float_range 0.3 0.85))
         (quad (int_range 20 120) (int_range 1 8) (int_range 1 4) (int_range 2 4))))

let print_detailed_case c =
  Printf.sprintf "seed %d comb %d util %g iters %d window %d passes %d k %d" c.seed c.comb c.util
    c.iters c.window c.passes c.k

let detailed_design c =
  let d =
    Workloads.Generate.generate
      {
        Helpers.small_gen_params with
        name = "detailed";
        seed = c.seed;
        num_comb = c.comb;
        num_ff = 1 + (c.comb / 8);
        num_inputs = 4;
        num_outputs = 4;
        levels = 4;
        num_macros = 0;
        utilization = c.util;
      }
  in
  let params = { Gp.Globalplace.default_params with max_iters = c.iters; min_iters = c.iters } in
  ignore (Gp.Globalplace.run ~params d);
  ignore (Gp.Legalize.run d);
  d

(* Counts of drawn designs that contain each shape the equivalence
   must cover. *)
let detailed_coverage = Array.make 3 0

let record_coverage (d : Netlist.Design.t) c =
  let movables = Array.of_list (Netlist.Design.movable_ids d) in
  Array.sort (fun a b -> compare (d.y.{a}, d.x.{a}) (d.y.{b}, d.x.{b})) movables;
  let nets id = Array.map (fun p -> d.pin_net.(p)) (Netlist.Design.cell_pins d id) in
  let same_row = ref false and shared_net = ref false and gap = ref false in
  let n = Array.length movables in
  for i = 0 to n - 1 do
    let a = movables.(i) in
    for j = i + 1 to min (n - 1) (i + c.window) do
      let b = movables.(j) in
      if d.y.{a} = d.y.{b} && d.w.{a} = d.w.{b} then begin
        same_row := true;
        if Array.exists (fun na -> na >= 0 && Array.mem na (nets b)) (nets a) then shared_net := true
      end
    done;
    (* [k] row neighbours from [a] whose span exceeds their total width *)
    if i + c.k <= n && d.y.{movables.(i + c.k - 1)} = d.y.{a} then begin
      let last = movables.(i + c.k - 1) in
      let widths = ref 0.0 in
      for q = i to i + c.k - 1 do
        widths := !widths +. d.w.{movables.(q)}
      done;
      if d.x.{last} +. (d.w.{last} /. 2.0) -. (d.x.{a} -. (d.w.{a} /. 2.0)) > !widths +. 1e-6 then
        gap := true
    end
  done;
  List.iteri
    (fun i hit -> if hit then detailed_coverage.(i) <- detailed_coverage.(i) + 1)
    [ !same_row; !shared_net; !gap ]

let placement_bits (d : Netlist.Design.t) =
  let bits (a : Netlist.Design.farr) =
    Array.init (Bigarray.Array1.dim a) (fun i -> Int64.bits_of_float a.{i})
  in
  (bits d.x, bits d.y)

(* Run [reference] and [fast] from the same placement: same return value
   and the same x/y bits, or a message saying what differs. *)
let same_as_reference (d : Netlist.Design.t) what reference fast =
  let start = Netlist.Design.snapshot d in
  let want = reference d in
  let want_xy = placement_bits d in
  Netlist.Design.restore d start;
  let got = fast d in
  let same_xy = placement_bits d = want_xy in
  Netlist.Design.restore d start;
  if want <> got then QCheck.Test.fail_reportf "%s: reference returned %d, got %d" what want got
  else if not same_xy then QCheck.Test.fail_reportf "%s: placements differ" what
  else true

let q_detailed_matches_reference =
  QCheck.Test.make ~count:100 ~name:"detailed placement matches the list-based reference"
    (QCheck.make ~print:print_detailed_case detailed_case_gen)
    (fun c ->
      let d = detailed_design c in
      record_coverage d c;
      let window = c.window and passes = c.passes and k = c.k in
      same_as_reference d "run" Ref_place.Detailed.run Gp.Detailed.run
      && same_as_reference d "run ~passes ~window"
           (Ref_place.Detailed.run ~passes ~window)
           (Gp.Detailed.run ~passes ~window)
      && same_as_reference d "pass ~window" (Ref_place.Detailed.pass ~window) (Gp.Detailed.pass ~window)
      && same_as_reference d "reorder_rows ~k" (Ref_place.Detailed.reorder_rows ~k)
           (Gp.Detailed.reorder_rows ~k))

let detailed_vs_reference () =
  Array.fill detailed_coverage 0 3 0;
  QCheck.Test.check_exn ~rand:(Random.State.make [| 20261017 |]) q_detailed_matches_reference;
  List.iteri
    (fun i what ->
      if detailed_coverage.(i) = 0 then Alcotest.failf "no drawn design had %s" what)
    [ "equal-width cells in one row"; "a net joining a swap pair"; "a window with a gap" ]

let suite =
  [
    Alcotest.test_case "sta full differential (1 and 4 domains)" `Quick sta_full_diff;
    Alcotest.test_case "sta incremental random walk" `Quick sta_incremental_walk;
    Alcotest.test_case "sta eco sequence differential (1 and 4 domains)" `Quick sta_eco_sequence;
    Alcotest.test_case "k_worst vs exhaustive DFS" `Quick paths_vs_exhaustive;
    Alcotest.test_case "report commands vs oracle" `Quick reports_vs_oracle;
    Alcotest.test_case "endpoint ranking never stale (1 and 4 domains)" `Quick ranking_never_stale;
    Alcotest.test_case "report_timing_endpoint contracts" `Quick endpoint_contracts;
    Alcotest.test_case "path order deterministic under ties" `Quick tie_break_determinism;
    Alcotest.test_case "elmore vs naive tree walk" `Quick elmore_diff;
    Alcotest.test_case "spectral kernels vs direct summation" `Quick numerics_diff;
    Alcotest.test_case "density and electro gather vs direct" `Quick density_electro_diff;
    Alcotest.test_case "wirelength value and gradient" `Quick wirelength_diff;
    Alcotest.test_case "pin attraction: eq9 + gradient fd" `Quick pin_attract_checks;
    Alcotest.test_case "eq9 shared-arc accumulation" `Quick eq9_shared_arc;
    Alcotest.test_case "metamorphic wirelength" `Quick metamorphic_wirelength;
    Alcotest.test_case "metamorphic tns/wns" `Quick metamorphic_tns_wns;
    Alcotest.test_case "mutation: elmore faults trip the gate" `Quick mutation_elmore;
    Alcotest.test_case "mutation: wa gradient faults trip the gate" `Quick mutation_wa_grad;
    Alcotest.test_case "fuzz battery clean" `Slow fuzz_battery;
    Alcotest.test_case "fuzz shrinker minimises" `Slow fuzz_shrinker;
    Alcotest.test_case "fuzz dumps counterexamples" `Quick fuzz_dump;
    Alcotest.test_case "golden tolerance policy" `Quick golden_policy;
    Alcotest.test_case "golden regen/check roundtrip" `Slow golden_roundtrip;
    Alcotest.test_case "detailed placement vs list reference" `Slow detailed_vs_reference;
  ]
