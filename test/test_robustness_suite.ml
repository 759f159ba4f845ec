(* Robustness suite: divergence guards, typed errors, fault-injection
   recovery, and the [place] binary's exit-code contract.

   Faults are per run: a test hands a fresh injector (or a fault plan)
   to the run it corrupts, so nothing can leak into later tests, and
   asserts the injector actually corrupted calls — a window that is
   never reached would make the test pass vacuously. *)

open Netlist

(* Run [f] at 1 and 4 domains — guards must catch corruption wherever a
   parallel kernel lands it. *)
let at_domains f () =
  Helpers.with_domains 1 f;
  Helpers.with_domains 4 f

let counter ctx name =
  match Obs.Ctx.metric ctx name with
  | Some (Obs.Metric.Counter r) -> !r
  | _ -> 0.0

(* Run [f ~fault] with a fresh injector for [spec], then check it hit. *)
let with_fault spec f =
  let inj = Util.Fault.injector spec in
  f ~fault:(Util.Fault.apply inj);
  Alcotest.(check bool) "fault window reached" true (Util.Fault.corrupted inj > 0)

(* Calls a flow run corrupted at [site] (its [fault.<site>] counter). *)
let flow_faults ctx site = counter ctx ("fault." ^ Util.Fault.site_name site)

(* ---------------- Guard primitives ---------------- *)

let test_guard_primitives () =
  Alcotest.(check bool) "finite" true (Util.Guard.is_finite 1.5);
  Alcotest.(check bool) "nan" false (Util.Guard.is_finite Float.nan);
  Alcotest.(check bool) "inf" false (Util.Guard.is_finite Float.infinity);
  let clean = Array.init 1000 float_of_int in
  Alcotest.(check bool) "all_finite clean" true (Util.Guard.all_finite clean);
  Alcotest.(check bool) "first_nonfinite clean" true
    (Util.Guard.first_nonfinite clean = None);
  Alcotest.(check int) "count clean" 0 (Util.Guard.count_nonfinite clean);
  let dirty = Array.copy clean in
  dirty.(617) <- Float.nan;
  dirty.(800) <- Float.neg_infinity;
  Alcotest.(check bool) "all_finite dirty" false (Util.Guard.all_finite dirty);
  Alcotest.(check bool) "first_nonfinite dirty" true
    (Util.Guard.first_nonfinite dirty = Some 617);
  Alcotest.(check int) "count dirty" 2 (Util.Guard.count_nonfinite dirty);
  Alcotest.(check bool) "empty" true (Util.Guard.all_finite [||])

let test_sampled_finite () =
  (* Short arrays are scanned in full: a single NaN is always found. *)
  let short = Array.make 100 0.0 in
  short.(63) <- Float.nan;
  Alcotest.(check bool) "short full scan" false (Util.Guard.sampled_finite short);
  (* Long arrays: a fully poisoned array is caught at any offset, and
     rotating the offset sweeps a single offender eventually. *)
  let long = Array.make 10_000 Float.nan in
  Alcotest.(check bool) "long poisoned" false (Util.Guard.sampled_finite ~offset:0 long);
  let one = Array.make 10_000 0.0 in
  one.(4321) <- Float.nan;
  let found = ref false in
  for off = 0 to 200 do
    if not (Util.Guard.sampled_finite ~offset:off one) then found := true
  done;
  Alcotest.(check bool) "offset sweep finds lone NaN" true !found;
  Alcotest.(check bool) "clean long" true
    (Util.Guard.sampled_finite ~offset:7 (Array.make 10_000 1.0))

(* ---------------- Fault specs ---------------- *)

let test_fault_spec_parse () =
  (match Util.Fault.parse_spec "nan@100+5" with
  | Ok s ->
      Alcotest.(check bool) "kind" true (s.Util.Fault.kind = Util.Fault.Nan);
      Alcotest.(check int) "start" 100 s.Util.Fault.start;
      Alcotest.(check int) "count" 5 s.Util.Fault.count;
      Alcotest.(check string) "roundtrip" "nan@100+5" (Util.Fault.spec_to_string s)
  | Error e -> Alcotest.fail e);
  (match Util.Fault.parse_spec "-inf@0" with
  | Ok s ->
      Alcotest.(check bool) "unbounded" true (s.Util.Fault.count < 0);
      Alcotest.(check bool) "neg inf" true (s.Util.Fault.kind = Util.Fault.Neg_inf)
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "bad kind" true (Result.is_error (Util.Fault.parse_spec "bogus@0"));
  Alcotest.(check bool) "bad window" true (Result.is_error (Util.Fault.parse_spec "nan@-3"));
  Alcotest.(check bool) "no at" true (Result.is_error (Util.Fault.parse_spec "nan"));
  (* Site names are validated by the parser: unknown or repeated sites
     are malformed plans. *)
  Alcotest.(check bool) "unknown site" true (Result.is_error (Util.Fault.parse "bogus=nan@0"));
  Alcotest.(check bool) "duplicate site" true
    (Result.is_error (Util.Fault.parse "elmore=nan@0,elmore=huge@3"));
  Alcotest.(check bool) "empty plan" true (Util.Fault.parse "" = Ok []);
  match Util.Fault.parse "wl_grad=nan@10+2, elmore=huge@0" with
  | Ok [ (Util.Fault.Wl_grad, s1); (Util.Fault.Elmore, s2) ] ->
      Alcotest.(check int) "clause 1 start" 10 s1.Util.Fault.start;
      Alcotest.(check bool) "clause 2 kind" true (s2.Util.Fault.kind = Util.Fault.Huge)
  | Ok _ -> Alcotest.fail "wrong clause list"
  | Error e -> Alcotest.fail e

let test_fault_injector_window () =
  let inj = Util.Fault.injector { Util.Fault.kind = Util.Fault.Nan; start = 3; count = 2 } in
  let out = List.init 8 (fun _ -> Util.Fault.apply inj 1.0) in
  let nans = List.filter (fun v -> Float.is_nan v) out in
  Alcotest.(check int) "exactly the window corrupted" 2 (List.length nans);
  Alcotest.(check int) "corruption counted" 2 (Util.Fault.corrupted inj);
  Alcotest.(check bool) "calls 0-2 clean" true
    (List.for_all (fun v -> v = 1.0) (List.filteri (fun i _ -> i < 3) out))

(* ---------------- Typed errors ---------------- *)

let test_error_exit_codes () =
  let cases =
    [
      (Util.Errors.Config_error { what = "w"; detail = "d" }, "config_error", 2);
      (Util.Errors.Invalid_design { design = "x"; problems = [ "p" ] }, "invalid_design", 3);
      (Util.Errors.Diverged { stage = "gp"; detail = "d"; recoveries = 5 }, "diverged", 4);
      (Util.Errors.Infeasible { stage = "legalize"; detail = "d" }, "infeasible", 5);
      (Util.Errors.Parse_failed { file = "bad.aux"; line = 3; detail = "d" }, "parse_error", 6);
    ]
  in
  List.iter
    (fun (e, kind, code) ->
      Alcotest.(check string) ("kind " ^ kind) kind (Util.Errors.kind e);
      Alcotest.(check int) ("exit code " ^ kind) code (Util.Errors.exit_code e);
      Alcotest.(check bool) ("message " ^ kind) true (String.length (Util.Errors.message e) > 0);
      Alcotest.(check bool) ("fields " ^ kind) true (Util.Errors.fields e <> []))
    cases;
  (* Exit codes are pairwise distinct and avoid the reserved 0/1/124/125. *)
  let codes = List.map (fun (e, _, _) -> Util.Errors.exit_code e) cases in
  Alcotest.(check int) "distinct" 5 (List.length (List.sort_uniq compare codes));
  List.iter
    (fun c -> Alcotest.(check bool) "not reserved" false (List.mem c [ 0; 1; 124; 125 ]))
    codes

(* ---------------- Nesterov BB fallback (satellite regression) -------- *)

(* A NaN gradient poisons prev_g; the next BB estimate is then NaN, and
   before the fix [Float.min max_step nan = nan] made the *step* NaN too,
   spreading the poison to every component of the iterate. With the fix
   the step falls back to [fallback_step] and only the originally
   poisoned component stays NaN. *)
let test_nesterov_bb_nan_fallback () =
  let opt = Gp.Nesterov.create [| 0.0; 0.0 |] in
  let step g = Gp.Nesterov.step opt ~g ~fallback_step:0.1 ~max_step:1.0 ~clamp:(fun _ -> ()) in
  step [| 1.0; 1.0 |];
  step [| Float.nan; 1.0 |];
  step [| 1.0; 1.0 |];
  let u = Gp.Nesterov.iterate opt in
  Alcotest.(check bool) "step length finite after NaN round" true
    (Float.is_finite (Gp.Nesterov.last_step opt));
  Alcotest.(check bool) "unpoisoned component stays finite" true (Float.is_finite u.(1))

(* ---------------- GP guard + rollback ---------------- *)

let gp_params =
  { Gp.Globalplace.default_params with max_iters = 40; min_iters = 0; seed = 3 }

(* A transient NaN window in the wirelength gradient: the guard must fire,
   roll back to the last verified checkpoint, and the run must finish with
   an entirely finite placement. *)
let test_gp_transient_fault_recovers () =
  let d = Workloads.Generate.generate Helpers.small_gen_params in
  let ctx = Obs.Ctx.create () in
  with_fault
    { Util.Fault.kind = Util.Fault.Nan; start = 2000; count = 500 }
    (fun ~fault ->
      let r = Gp.Globalplace.run ~params:gp_params ~obs:ctx ~fault d in
      Alcotest.(check bool) "guard fired" true (counter ctx "guard.nan_detected" >= 1.0);
      Alcotest.(check bool) "gradient guard caught it" true
        (counter ctx "guard.gradient_nonfinite" >= 1.0);
      Alcotest.(check bool) "rolled back" true (counter ctx "guard.rollbacks" >= 1.0);
      Alcotest.(check bool) "final hpwl finite" true (Float.is_finite r.Gp.Globalplace.final_hpwl);
      Alcotest.(check bool) "coordinates finite" true
        (Util.Guard.all_finite_ba d.Design.x && Util.Guard.all_finite_ba d.Design.y))

(* Every fault kind must be caught, not just NaN. *)
let test_gp_fault_kinds_recover () =
  List.iter
    (fun kind ->
      let d = Workloads.Generate.generate Helpers.small_gen_params in
      let ctx = Obs.Ctx.create () in
      with_fault
        { Util.Fault.kind; start = 2000; count = 300 }
        (fun ~fault ->
          let r = Gp.Globalplace.run ~params:gp_params ~obs:ctx ~fault d in
          Alcotest.(check bool)
            ("finite after " ^ Util.Fault.kind_to_string kind)
            true
            (Float.is_finite r.Gp.Globalplace.final_hpwl)))
    [ Util.Fault.Nan; Util.Fault.Pos_inf; Util.Fault.Neg_inf ]

(* A persistent fault exhausts the consecutive-recovery budget and must
   raise the structured [Diverged] error instead of looping forever. *)
let test_gp_persistent_fault_diverges () =
  let d = Workloads.Generate.generate Helpers.small_gen_params in
  let ctx = Obs.Ctx.create () in
  with_fault
    { Util.Fault.kind = Util.Fault.Nan; start = 0; count = -1 }
    (fun ~fault ->
      match Gp.Globalplace.run ~params:gp_params ~obs:ctx ~fault d with
      | _ -> Alcotest.fail "expected Diverged"
      | exception Util.Errors.Error (Util.Errors.Diverged { recoveries; stage; _ }) ->
          Alcotest.(check string) "stage" "globalplace" stage;
          Alcotest.(check int) "budget exhausted" Gp.Globalplace.max_recoveries
            recoveries;
          Alcotest.(check bool) "rollbacks counted" true
            (counter ctx "guard.rollbacks"
            >= float_of_int Gp.Globalplace.max_recoveries))

(* ---------------- Flow checkpoint decision (satellite) ---------------- *)

let test_checkpoint_decision () =
  let dec = Tdp.Flow.checkpoint_decision in
  Alcotest.(check bool) "clear improvement" true
    (dec ~best_key:(-10.0) ~best_hpwl:100.0 ~key:(-5.0) ~hpwl:120.0 = Tdp.Flow.New_best);
  Alcotest.(check bool) "clear regression" true
    (dec ~best_key:(-5.0) ~best_hpwl:100.0 ~key:(-10.0) ~hpwl:50.0 = Tdp.Flow.Keep);
  Alcotest.(check bool) "tie with better hpwl" true
    (dec ~best_key:(-5.0) ~best_hpwl:100.0 ~key:(-5.0 -. 1e-10) ~hpwl:90.0
    = Tdp.Flow.Tie_better_hpwl);
  Alcotest.(check bool) "tie with worse hpwl" true
    (dec ~best_key:(-5.0) ~best_hpwl:100.0 ~key:(-5.0) ~hpwl:110.0 = Tdp.Flow.Keep);
  Alcotest.(check bool) "first round always wins" true
    (dec ~best_key:Float.neg_infinity ~best_hpwl:Float.infinity ~key:(-1e9) ~hpwl:1.0
    = Tdp.Flow.New_best);
  (* Non-finite metrics never checkpoint. *)
  Alcotest.(check bool) "nan key" true
    (dec ~best_key:(-5.0) ~best_hpwl:100.0 ~key:Float.nan ~hpwl:90.0 = Tdp.Flow.Keep);
  Alcotest.(check bool) "inf hpwl" true
    (dec ~best_key:(-5.0) ~best_hpwl:100.0 ~key:0.0 ~hpwl:Float.infinity = Tdp.Flow.Keep);
  (* The ratchet scenario that motivated the fix: a chain of eps-sized
     regressions each accepted as a "tie". The caller keeps
     [max best_key key], so the bar never moves down; verify that after a
     simulated chain the original best still decides. *)
  let best_key = ref (-5.0) and best_hpwl = ref 100.0 in
  for i = 1 to 50 do
    let key = -5.0 -. (1e-4 *. 5.0 *. 0.9) (* just inside the eps band *) in
    let hpwl = 100.0 -. float_of_int i in
    match dec ~best_key:!best_key ~best_hpwl:!best_hpwl ~key ~hpwl with
    | Tdp.Flow.Tie_better_hpwl ->
        best_key := Float.max !best_key key;
        best_hpwl := hpwl
    | Tdp.Flow.New_best ->
        best_key := key;
        best_hpwl := hpwl
    | Tdp.Flow.Keep -> ()
  done;
  Alcotest.(check (float 1e-12)) "best key never ratcheted down" (-5.0) !best_key

(* ---------------- Pin attraction boundaries (satellite) -------------- *)

let test_pin_attract_wns_boundary () =
  let d = Helpers.chain_design () in
  let timer = Sta.Timer.create d in
  Sta.Timer.update timer;
  let graph = Sta.Timer.graph timer in
  let path =
    match Sta.Timer.critical_path timer with
    | Some p -> p
    | None -> Alcotest.fail "chain design has no critical path"
  in
  let with_slack s = { path with Sta.Paths.slack = s } in
  let fresh () = Tdp.Pin_attract.create d ~loss:Tdp.Config.Quadratic in
  let update pa ~wns paths =
    Tdp.Pin_attract.update_from_paths pa graph ~w0:10.0 ~w1:2.0 ~wns ~stale_decay:0.9 paths
  in
  (* wns = 0: no violation, Eq. 9 must not divide by zero or create pairs. *)
  let pa = fresh () in
  update pa ~wns:0.0 [ with_slack (-1.0) ];
  Alcotest.(check int) "wns=0 creates no pairs" 0 (Tdp.Pin_attract.num_pairs pa);
  (* Negative zero is still "no violation". *)
  let pa = fresh () in
  update pa ~wns:(-0.0) [ with_slack (-1.0) ];
  Alcotest.(check int) "wns=-0 creates no pairs" 0 (Tdp.Pin_attract.num_pairs pa);
  (* Non-finite ratio operands are rejected. *)
  let pa = fresh () in
  update pa ~wns:(-1.0) [ with_slack Float.neg_infinity ];
  Alcotest.(check int) "slack=-inf rejected" 0 (Tdp.Pin_attract.num_pairs pa);
  let pa = fresh () in
  update pa ~wns:(-1.0) [ with_slack Float.nan ];
  Alcotest.(check int) "slack=nan rejected" 0 (Tdp.Pin_attract.num_pairs pa);
  (* A genuine violation still updates, and every weight stays finite. *)
  let pa = fresh () in
  update pa ~wns:(-2.0) [ with_slack (-1.0) ];
  Alcotest.(check bool) "violation creates pairs" true (Tdp.Pin_attract.num_pairs pa > 0);
  let all_finite =
    Tdp.Pin_attract.fold_pairs pa ~init:true ~f:(fun acc ~pin_i:_ ~pin_j:_ ~weight ->
        acc && Float.is_finite weight)
  in
  Alcotest.(check bool) "weights finite" true all_finite

(* ---------------- Validation ---------------- *)

let test_design_validate () =
  let d = Helpers.chain_design () in
  Alcotest.(check (list string)) "clean design" [] (Design.validate d);
  Design.validate_exn d;
  let saved = d.Design.x.{1} in
  d.Design.x.{1} <- Float.nan;
  Alcotest.(check bool) "nan coordinate detected" true (Design.validate d <> []);
  (try
     Design.validate_exn d;
     Alcotest.fail "expected Invalid_design"
   with Util.Errors.Error (Util.Errors.Invalid_design { design; problems }) ->
     Alcotest.(check string) "design name" d.Design.name design;
     Alcotest.(check bool) "problems listed" true (problems <> []));
  d.Design.x.{1} <- saved;
  Alcotest.(check (list string)) "restored design clean" [] (Design.validate d)

let test_config_validate () =
  Alcotest.(check bool) "default valid" true (Tdp.Config.validate Tdp.Config.default = Ok ());
  let bad = { Tdp.Config.default with Tdp.Config.m = 0 } in
  Alcotest.(check bool) "m=0 rejected" true (Result.is_error (Tdp.Config.validate bad));
  let bad = { Tdp.Config.default with Tdp.Config.beta = Float.nan } in
  Alcotest.(check bool) "nan beta rejected" true (Result.is_error (Tdp.Config.validate bad));
  let bad = { Tdp.Config.default with Tdp.Config.stale_decay = 0.0 } in
  (try
     Tdp.Config.validate_exn bad;
     Alcotest.fail "expected Config_error"
   with Util.Errors.Error (Util.Errors.Config_error _) -> ())

(* ---------------- Whole-flow robustness ---------------- *)

let fast_cfg =
  {
    Tdp.Config.default with
    Tdp.Config.timing_start = 20;
    extra_iters = 60;
    m = 10;
  }

let elmore_plan kind = [ (Util.Fault.Elmore, { Util.Fault.kind; start = 0; count = 20_000 }) ]

(* The Efficient flow under a delay-model fault window: huge delays make
   every slack wildly negative for a few rounds; the flow must survive and
   deliver finite metrics. *)
let test_flow_with_elmore_fault () =
  let d = Helpers.small_calibrated () in
  let ctx = Obs.Ctx.create () in
  let r =
    Tdp.Flow.run ~obs:ctx ~fault:(elmore_plan Util.Fault.Huge) (Tdp.Flow.Efficient fast_cfg) d
  in
  Alcotest.(check bool) "fault window reached" true (flow_faults ctx Util.Fault.Elmore > 0.0);
  let m = r.Tdp.Flow.metrics in
  Alcotest.(check bool) "hpwl finite" true (Float.is_finite m.Evalkit.Metrics.hpwl);
  Alcotest.(check bool) "tns finite" true (Float.is_finite m.Evalkit.Metrics.tns);
  Alcotest.(check bool) "coordinates finite" true
    (Util.Guard.all_finite_ba d.Design.x && Util.Guard.all_finite_ba d.Design.y)

(* Non-finite delays: Propagate filters non-finite slacks, so the flow
   timer's tns/wns stay finite and the extraction guard layers never let
   a NaN reach the pair weights. The flow completes with finite output.
   (A NaN arc loses every max/min comparison in propagation; an infinite
   one is what drives slacks non-finite.) *)
let test_flow_with_elmore_nan_fault () =
  List.iter
    (fun kind ->
      let what = Util.Fault.kind_to_string kind in
      let d = Helpers.small_calibrated () in
      let ctx = Obs.Ctx.create () in
      let r = Tdp.Flow.run ~obs:ctx ~fault:(elmore_plan kind) (Tdp.Flow.Efficient fast_cfg) d in
      Alcotest.(check bool) (what ^ " window reached") true
        (flow_faults ctx Util.Fault.Elmore > 0.0);
      Alcotest.(check bool) (what ^ " round tns/wns finite") true
        (List.for_all
           (fun (c : Tdp.Flow.curve_point) -> Float.is_finite c.tns && Float.is_finite c.wns)
           r.Tdp.Flow.curve);
      Alcotest.(check bool) (what ^ " hpwl finite") true
        (Float.is_finite r.Tdp.Flow.metrics.Evalkit.Metrics.hpwl))
    [ Util.Fault.Nan; Util.Fault.Pos_inf ]

(* The baselines' timers take the same Elmore fault plans: every timing
   method completes with finite final metrics. *)
let test_flow_methods_with_elmore_fault () =
  List.iter
    (fun meth ->
      List.iter
        (fun kind ->
          let what = Tdp.Flow.method_name meth ^ " " ^ Util.Fault.kind_to_string kind in
          let d = Helpers.small_calibrated () in
          let ctx = Obs.Ctx.create () in
          let r = Tdp.Flow.run ~obs:ctx ~fault:(elmore_plan kind) meth d in
          Alcotest.(check bool) (what ^ " window reached") true
            (flow_faults ctx Util.Fault.Elmore > 0.0);
          let m = r.Tdp.Flow.metrics in
          Alcotest.(check bool) (what ^ " metrics finite") true
            (List.for_all Float.is_finite
               [ m.Evalkit.Metrics.hpwl; m.Evalkit.Metrics.tns; m.Evalkit.Metrics.wns ]))
        [ Util.Fault.Nan; Util.Fault.Pos_inf; Util.Fault.Neg_inf; Util.Fault.Huge ])
    Tdp.Flow.[ Dp4; Diff_tdp; Dist_tdp; Dp4_in_ours ]

(* [Flow.run] scores on one clean Steiner timer of its own, so its
   metrics equal a fresh [Evalkit.Metrics.evaluate] of the placement they
   describe: also under an Elmore fault plan on the method's timer, and
   when the run keeps its best checkpoint. Without legalization both
   metrics describe the final placement; with it, [metrics] does and
   [metrics_gp] repeats the unlegalized run's. *)
let test_flow_scores_like_evaluate () =
  let metrics = Alcotest.testable Evalkit.Metrics.pp ( = ) in
  List.iter
    (fun (what, fault) ->
      let run legalize =
        let d = Workloads.Suite.load ~scale:0.15 "sb1" in
        let ctx = Obs.Ctx.create () in
        let r = Tdp.Flow.run ~obs:ctx ~legalize ~fault (Tdp.Flow.Efficient fast_cfg) d in
        (r, Evalkit.Metrics.evaluate d, flow_faults ctx Util.Fault.Elmore)
      in
      let raw, raw_eval, faults = run false in
      let legal, legal_eval, _ = run true in
      Alcotest.(check bool) (what ^ ": fault window reached") (fault <> []) (faults > 0.0);
      Alcotest.check metrics (what ^ ": metrics_gp") raw_eval raw.Tdp.Flow.metrics_gp;
      Alcotest.check metrics (what ^ ": metrics") raw_eval raw.Tdp.Flow.metrics;
      Alcotest.check metrics (what ^ ": legalized metrics") legal_eval legal.Tdp.Flow.metrics;
      Alcotest.check metrics (what ^ ": legalized metrics_gp") raw.Tdp.Flow.metrics_gp
        legal.Tdp.Flow.metrics_gp;
      (* The clean run keeps a checkpoint: its placement is one recorded at
         a timing round, not the final iterate. *)
      if fault = [] then
        Alcotest.(check bool) (what ^ ": best checkpoint kept") true
          (List.exists
             (fun (c : Tdp.Flow.curve_point) -> c.hpwl = raw.Tdp.Flow.metrics_gp.hpwl)
             raw.Tdp.Flow.curve))
    [ ("elmore fault", elmore_plan Util.Fault.Huge); ("checkpoint", []) ]

(* Fault windows are per run: the same windowed plan corrupts the same
   number of calls in two back-to-back runs. *)
let test_fault_window_per_run () =
  let plan =
    [ (Util.Fault.Wl_grad, { Util.Fault.kind = Util.Fault.Nan; start = 0; count = 500 }) ]
  in
  let corrupted () =
    let ctx = Obs.Ctx.create () in
    ignore (Tdp.Flow.run ~obs:ctx ~fault:plan Tdp.Flow.Vanilla (Helpers.small_calibrated ()));
    flow_faults ctx Util.Fault.Wl_grad
  in
  let first = corrupted () in
  let second = corrupted () in
  Alcotest.(check (float 0.0)) "first run corrupts the whole window" 500.0 first;
  Alcotest.(check (float 0.0)) "second run corrupts as many" first second

let test_flow_rejects_invalid_design () =
  let d = Helpers.chain_design () in
  d.Design.x.{1} <- Float.infinity;
  try
    ignore (Tdp.Flow.run ~obs:Obs.Ctx.null Tdp.Flow.Vanilla d);
    Alcotest.fail "expected Invalid_design"
  with Util.Errors.Error (Util.Errors.Invalid_design _) -> ()

(* ---------------- The place binary's exit-code contract -------------- *)

(* Resolve the binary relative to the test executable so the tests work
   both under `dune runtest` (cwd = _build/default/test) and `dune exec`
   from anywhere. *)
let bin_exe name =
  Filename.concat
    (Filename.dirname Sys.executable_name)
    (Filename.concat Filename.parent_dir_name (Filename.concat "bin" (name ^ ".exe")))

let run_bin name args = Sys.command (bin_exe name ^ " " ^ args ^ " >/dev/null 2>&1")

let run_place = run_bin "place"

(* A counter's value in a --report-json file's metrics registry. *)
let report_counter path name =
  let registry =
    Option.bind (Obs.Json.member "metrics_registry" (Obs.Json.parse_exn (Helpers.read_file path)))
      Obs.Json.to_list
  in
  List.find_map
    (fun m ->
      match Option.bind (Obs.Json.member "name" m) Obs.Json.to_string_opt with
      | Some n when n = name -> Option.bind (Obs.Json.member "value" m) Obs.Json.to_float
      | _ -> None)
    (Option.value ~default:[] registry)
  |> Option.value ~default:0.0

let test_place_exit_codes () =
  Helpers.with_temp_dir @@ fun dir ->
  let at = Filename.concat dir in
  let design = at "tiny.aux" and bad_design = at "bad.aux" and report = at "report.json" in
  Formats.Auto.save design (Helpers.chain_design ());
  (* Parses cleanly but fails validation: a negative clock period. *)
  let bad = Helpers.chain_design () in
  bad.Design.clock_period <- -500.0;
  Formats.Auto.save bad_design bad;
  let base = Printf.sprintf "--design-file %s --flow vanilla --log-level quiet" design in
  (* Success: exit 0 and a null error field in the report. *)
  Alcotest.(check int) "success exit 0" 0
    (run_place (Printf.sprintf "%s --report-json %s" base report));
  Alcotest.(check bool) "success report has null error" true
    (Helpers.contains ~sub:"\"error\":null" (Helpers.read_file report));
  (* Config errors: exit 2. *)
  Alcotest.(check int) "unknown flow exit 2" 2
    (run_place (Printf.sprintf "--design-file %s --flow nope --log-level quiet" design));
  Alcotest.(check int) "unknown fault site exit 2" 2
    (run_place (base ^ " --fault-inject bogus=nan@0"));
  Alcotest.(check int) "malformed fault spec exit 2" 2
    (run_place (base ^ " --fault-inject wl_grad=nan"));
  (* Invalid design: exit 3. *)
  Alcotest.(check int) "negative clock exit 3" 3
    (run_place
       (Printf.sprintf "--design-file %s --flow vanilla --log-level quiet" bad_design));
  (* Malformed foreign file: exit 6, with the structured parse_error
     (kind + file/line/detail) in the report. *)
  let malformed = at "malformed.aux" in
  Helpers.write_file malformed "RowBasedPlacement : m.nodes\nbogus record here\n";
  Alcotest.(check int) "malformed file exit 6" 6
    (run_place
       (Printf.sprintf "--design-file %s --log-level quiet --report-json %s" malformed
          report));
  let rpt = Helpers.read_file report in
  Alcotest.(check bool) "parse_error kind in report" true
    (Helpers.contains ~sub:"\"kind\":\"parse_error\"" rpt);
  Alcotest.(check bool) "offending line in report" true (Helpers.contains ~sub:"\"line\":\"2\"" rpt);
  (* Divergence under a persistent injected fault: exit 4, and the
     report carries the structured error plus the guard counters. *)
  Alcotest.(check int) "persistent fault exit 4" 4
    (run_place (Printf.sprintf "%s --fault-inject wl_grad=nan@0 --report-json %s" base report));
  let rpt = Helpers.read_file report in
  Alcotest.(check bool) "diverged error kind in report" true
    (Helpers.contains ~sub:"\"kind\":\"diverged\"" rpt);
  Alcotest.(check bool) "guard counters in report" true
    (Helpers.contains ~sub:"guard.rollbacks" rpt);
  Alcotest.(check bool) "corrupted calls in report" true
    (report_counter report "fault.wl_grad" > 0.0);
  Alcotest.(check bool) "gradient guard in report" true
    (report_counter report "guard.gradient_nonfinite" > 0.0);
  (* A site given twice is a malformed plan, not a silent override. *)
  Alcotest.(check int) "duplicate fault site exit 2" 2
    (run_place (base ^ " --fault-inject wl_grad=nan@0,wl_grad=inf@5"))

(* The small tools share place's loader and exit-code mapping: a
   malformed or unknown design file exits 6, a bad output extension 2. *)
let test_tools_exit_codes () =
  Helpers.with_temp_dir @@ fun dir ->
  let at = Filename.concat dir in
  let malformed = at "malformed.aux" in
  Helpers.write_file malformed "RowBasedPlacement : m.nodes\nbogus record here\n";
  List.iter
    (fun tool ->
      Alcotest.(check int) (tool ^ " malformed file exit 6") 6
        (run_bin tool ("--design-file " ^ malformed));
      Alcotest.(check int) (tool ^ " unknown extension exit 6") 6
        (run_bin tool ("--design-file " ^ at "x.design")))
    [ "report_timing"; "design_stats" ];
  Alcotest.(check int) "gen_bench bad extension exit 2" 2
    (run_bin "gen_bench" ("-d sb1 --scale 0.05 --no-calibrate -o " ^ at "x.design"));
  Alcotest.(check int) "place bad --out extension exit 2" 2
    (run_place ("-d sb1 --scale 0.05 --out " ^ at "x.design"))

(* ---------------- The bench driver ---------------- *)

let bench_exe =
  Filename.concat
    (Filename.dirname Sys.executable_name)
    (Filename.concat Filename.parent_dir_name (Filename.concat "bench" "main.exe"))

(* Runs the bench with [args]; returns the exit code, stdout and stderr. *)
let run_bench args =
  Helpers.with_temp_dir @@ fun dir ->
  let out = Filename.concat dir "out.txt" and err = Filename.concat dir "err.txt" in
  let code = Sys.command (Printf.sprintf "%s %s > %s 2> %s" bench_exe args out err) in
  (code, Helpers.read_file out, Helpers.read_file err)

(* Every argument is validated before any section runs: an unknown
   section or option and a malformed value exit 2 with nothing on stdout,
   even when a valid section comes first, and a usage line that lists the
   sections on stderr. *)
let test_bench_usage_errors () =
  List.iter
    (fun (what, args) ->
      let code, out, err = run_bench args in
      Alcotest.(check int) (what ^ " exits 2") 2 code;
      Alcotest.(check string) (what ^ " runs no section") "" out;
      Alcotest.(check bool) (what ^ " prints usage") true
        (Helpers.contains ~sub:"usage:" err
        && Helpers.contains ~sub:"sections: table1 table2" err))
    [
      ("unknown section", "--scale 0.05 table1 tabel2");
      ("unknown option", "--scale 0.05 --sclae 0.1 table1");
      ("single-dash option", "--scale 0.05 -domains 2 table1");
      ("malformed value", "--scale abc table1");
      ("missing value", "table1 --scale");
    ]

(* Table I measures sb1's vanilla placement whatever ran before it: the
   flow memo puts the design back at a cached flow's placement. *)
let test_bench_table1_sees_its_placement () =
  let table1_lines args =
    let code, out, _ = run_bench args in
    Alcotest.(check int) (args ^ " exits 0") 0 code;
    String.split_on_char '\n' out
    |> List.filter_map (fun l ->
           if String.starts_with ~prefix:"Table I workload" l then Some l
           else if String.starts_with ~prefix:"paper shape: endpoint coverage" l then
             (* The speedup after the ';' is a timing. *)
             Some (List.hd (String.split_on_char ';' l))
           else None)
  in
  let alone = table1_lines "--scale 0.15 table1" in
  Alcotest.(check int) "workload and coverage lines" 2 (List.length alone);
  Alcotest.(check (list string)) "same after smoke" alone (table1_lines "--scale 0.15 smoke table1")

let suite =
  [
    ("guard primitives", `Quick, test_guard_primitives);
    ("guard sampled probe", `Quick, test_sampled_finite);
    ("fault spec parsing", `Quick, test_fault_spec_parse);
    ("fault injector window", `Quick, test_fault_injector_window);
    ("error exit codes", `Quick, test_error_exit_codes);
    ("nesterov BB NaN fallback", `Quick, test_nesterov_bb_nan_fallback);
    ("gp transient fault recovers", `Quick, at_domains test_gp_transient_fault_recovers);
    ("gp fault kinds recover", `Quick, test_gp_fault_kinds_recover);
    ("gp persistent fault diverges", `Quick, at_domains test_gp_persistent_fault_diverges);
    ("flow checkpoint decision", `Quick, test_checkpoint_decision);
    ("pin attraction wns boundary", `Quick, test_pin_attract_wns_boundary);
    ("design validation", `Quick, test_design_validate);
    ("config validation", `Quick, test_config_validate);
    ("flow survives elmore huge fault", `Slow, test_flow_with_elmore_fault);
    ("flow survives elmore nan fault", `Slow, test_flow_with_elmore_nan_fault);
    ("every timing method survives elmore faults", `Slow, test_flow_methods_with_elmore_fault);
    ("fault window is per run", `Slow, test_fault_window_per_run);
    ("flow scores like a fresh evaluate", `Slow, test_flow_scores_like_evaluate);
    ("flow rejects invalid design", `Quick, test_flow_rejects_invalid_design);
    ("place exit codes", `Slow, test_place_exit_codes);
    ("tools exit codes", `Quick, test_tools_exit_codes);
    ("bench usage errors", `Quick, test_bench_usage_errors);
    ("bench table1 sees its placement", `Slow, test_bench_table1_sees_its_placement);
  ]
