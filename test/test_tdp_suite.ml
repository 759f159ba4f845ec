(* Tests for the core tdp library: pin attraction (Eq. 8-10), extraction
   rounds, the baselines, and the end-to-end flows. *)

open Netlist

let check_float = Alcotest.(check (float 1e-6))

(* ---------------- Pin_attract: Eq. 9 semantics ---------------- *)

(* A fake two-arc path over the chain design's net arcs. *)
let chain_with_graph () =
  let d = Helpers.chain_design () in
  let timer = Sta.Timer.create d in
  Sta.Timer.update timer;
  (d, timer)

let get_path timer ep =
  match Sta.Timer.k_worst timer ~endpoint:ep ~k:1 with
  | [ p ] -> p
  | _ -> Alcotest.fail "expected a path"

let test_eq9_first_insert_w0 () =
  let d, _timer = chain_with_graph () in
  d.clock_period <- 150.0;
  let timer = Sta.Timer.create d in
  Sta.Timer.update timer;
  let g = Sta.Timer.graph timer in
  let pa = Tdp.Pin_attract.create d ~loss:Tdp.Config.Quadratic in
  let ep = g.Sta.Graph.endpoints.(0) in
  let p = get_path timer ep in
  Tdp.Pin_attract.update_from_paths pa g ~w0:10.0 ~w1:0.5 ~wns:(Sta.Timer.wns timer)
    ~stale_decay:1.0 [ p ];
  (* chain: the path to ff.d crosses 2 net arcs (n1, n2). *)
  Alcotest.(check int) "pairs = net arcs on path" 2 (Tdp.Pin_attract.num_pairs pa);
  ignore timer

let test_eq9_accumulates_on_repeat () =
  let d, _ = chain_with_graph () in
  d.clock_period <- 150.0;
  let timer = Sta.Timer.create d in
  Sta.Timer.update timer;
  let g = Sta.Timer.graph timer in
  let pa = Tdp.Pin_attract.create d ~loss:Tdp.Config.Quadratic in
  let wns = Sta.Timer.wns timer in
  let ep_worst = List.hd (Sta.Timer.failing_endpoints timer) in
  let p = get_path timer ep_worst in
  (* Worst path: ratio = 1. First round: w0. Second: w0 + w1. *)
  Tdp.Pin_attract.update_from_paths pa g ~w0:10.0 ~w1:0.5 ~wns ~stale_decay:1.0 [ p ];
  let v1 = Tdp.Pin_attract.loss_value pa in
  Tdp.Pin_attract.update_from_paths pa g ~w0:10.0 ~w1:0.5 ~wns ~stale_decay:1.0 [ p ];
  let v2 = Tdp.Pin_attract.loss_value pa in
  (* weights went from 10 to 10.5 on every pair: loss scales by 1.05 *)
  Alcotest.(check bool) "loss grows by w1/w0" true (Float.abs ((v2 /. v1) -. 1.05) < 1e-9)

let test_eq9_path_sharing () =
  (* Two paths sharing a pair: the shared pair accumulates both
     contributions in a single round. Use the diamond: paths through ua
     and ub share the net arc um.o -> po. *)
  let d = Helpers.diamond_design () in
  d.clock_period <- 10.0;
  let timer = Sta.Timer.create d in
  Sta.Timer.update timer;
  let g = Sta.Timer.graph timer in
  let ep = g.Sta.Graph.endpoints.(0) in
  let paths = Sta.Timer.k_worst timer ~endpoint:ep ~k:2 in
  Alcotest.(check int) "two paths" 2 (List.length paths);
  let pa = Tdp.Pin_attract.create d ~loss:Tdp.Config.Quadratic in
  Tdp.Pin_attract.update_from_paths pa g ~w0:1.0 ~w1:1.0 ~wns:(Sta.Timer.wns timer)
    ~stale_decay:1.0 paths;
  (* unique net arcs: n0->ua, n0->ub, na, nb, no = 5; the shared 'no' arc
     must have weight 1 + 1*(slack2/wns) > 1 while unshared arcs have 1. *)
  Alcotest.(check int) "five pairs" 5 (Tdp.Pin_attract.num_pairs pa)

let test_stale_decay () =
  let d, _ = chain_with_graph () in
  d.clock_period <- 150.0;
  let timer = Sta.Timer.create d in
  Sta.Timer.update timer;
  let g = Sta.Timer.graph timer in
  let wns = Sta.Timer.wns timer in
  let pa = Tdp.Pin_attract.create d ~loss:Tdp.Config.Quadratic in
  let ep_worst = List.hd (Sta.Timer.failing_endpoints timer) in
  let other_ep =
    List.find (fun e -> e <> ep_worst) (Array.to_list g.Sta.Graph.endpoints)
  in
  let p1 = get_path timer ep_worst and p2 = get_path timer other_ep in
  Tdp.Pin_attract.update_from_paths pa g ~w0:10.0 ~w1:0.5 ~wns ~stale_decay:0.5 [ p1; p2 ];
  let v_both = Tdp.Pin_attract.loss_value pa in
  (* Next round only p1 is critical: p2's pairs decay by 0.5. *)
  Tdp.Pin_attract.update_from_paths pa g ~w0:10.0 ~w1:0.5 ~wns ~stale_decay:0.5 [ p1 ];
  let v_after = Tdp.Pin_attract.loss_value pa in
  Alcotest.(check bool) "stale pairs decayed" true (v_after < v_both);
  (* Empty round: weights held, loss unchanged. *)
  Tdp.Pin_attract.update_from_paths pa g ~w0:10.0 ~w1:0.5 ~wns ~stale_decay:0.5 [];
  check_float "hold on empty round" v_after (Tdp.Pin_attract.loss_value pa)

let test_loss_values_hand_computed () =
  let d = Helpers.chain_design () in
  let pa_q = Tdp.Pin_attract.create d ~loss:Tdp.Config.Quadratic in
  let pa_l = Tdp.Pin_attract.create d ~loss:Tdp.Config.Linear in
  let pa_h = Tdp.Pin_attract.create d ~loss:Tdp.Config.Hpwl_like in
  (* Manually inject one pair: pi.p (0,50) -> u1.a1 (29.5,50), w=2. *)
  let inject pa =
    let timer = Sta.Timer.create d in
    Sta.Timer.update timer;
    let g = Sta.Timer.graph timer in
    d.clock_period <- 150.0;
    let timer = Sta.Timer.create d in
    Sta.Timer.update timer;
    let ep = List.hd (Sta.Timer.failing_endpoints timer) in
    let p = get_path timer ep in
    Tdp.Pin_attract.update_from_paths pa g ~w0:2.0 ~w1:0.0 ~wns:(-1.0) ~stale_decay:1.0 [ p ]
  in
  inject pa_q;
  inject pa_l;
  inject pa_h;
  (* path pins: pi.p(0,50) -> u1.a1(29.5,50) -> u1.o(30.5,50) -> ff.d(58,50).
     Net arcs: (pi.p,u1.a1) d=29.5 and (u1.o,ff.d) d=27.5, both horizontal. *)
  check_float "quadratic" (2.0 *. ((29.5 *. 29.5) +. (27.5 *. 27.5))) (Tdp.Pin_attract.loss_value pa_q);
  check_float "linear" (2.0 *. (29.5 +. 27.5)) (Tdp.Pin_attract.loss_value pa_l);
  check_float "hpwl-like" (2.0 *. (29.5 +. 27.5)) (Tdp.Pin_attract.loss_value pa_h)

let test_grad_antisymmetric_and_finite_diff () =
  let d = Helpers.chain_design () in
  d.clock_period <- 150.0;
  let timer = Sta.Timer.create d in
  Sta.Timer.update timer;
  let g = Sta.Timer.graph timer in
  List.iter
    (fun loss ->
      let pa = Tdp.Pin_attract.create d ~loss in
      let ep = List.hd (Sta.Timer.failing_endpoints timer) in
      let p = get_path timer ep in
      Tdp.Pin_attract.update_from_paths pa g ~w0:3.0 ~w1:0.0 ~wns:(-1.0) ~stale_decay:1.0 [ p ];
      let n = Design.num_cells d in
      let gx = Array.make n 0.0 and gy = Array.make n 0.0 in
      Tdp.Pin_attract.add_grad pa ~gx ~gy;
      (* Total force sums to zero (action = reaction). *)
      check_float "sum gx zero" 0.0 (Array.fold_left ( +. ) 0.0 gx);
      check_float "sum gy zero" 0.0 (Array.fold_left ( +. ) 0.0 gy);
      (* Finite difference on movable cell u1 (id 1), x direction. *)
      let h = 1e-5 in
      let x0 = d.x.{1} in
      d.x.{1} <- x0 +. h;
      let fp = Tdp.Pin_attract.loss_value pa in
      d.x.{1} <- x0 -. h;
      let fm = Tdp.Pin_attract.loss_value pa in
      d.x.{1} <- x0;
      let num = (fp -. fm) /. (2.0 *. h) in
      Alcotest.(check bool)
        (Printf.sprintf "finite diff (%g vs %g)" num gx.(1))
        true
        (Float.abs (num -. gx.(1)) < 1e-3 *. (1.0 +. Float.abs num)))
    [ Tdp.Config.Quadratic; Tdp.Config.Linear; Tdp.Config.Hpwl_like ]

(* ---------------- Extraction rounds ---------------- *)

let test_extraction_round () =
  let d = Helpers.small_calibrated () in
  (* Random-ish spread so there are real violations. *)
  let rng = Util.Rng.create 3 in
  for id = 0 to Design.num_cells d - 1 do
    if Design.is_movable d id then begin
      d.x.{id} <- Util.Rng.float rng (Geom.Rect.width d.die);
      d.y.{id} <- Util.Rng.float rng (Geom.Rect.height d.die)
    end
  done;
  let ex = Tdp.Extraction.create (Sta.Timer.create d) ~config:Tdp.Config.default in
  let s1 = Tdp.Extraction.round ex ~iter:0 in
  Alcotest.(check bool) "found failing endpoints" true (s1.num_failing > 0);
  Alcotest.(check int) "one path per endpoint" s1.num_failing s1.num_paths;
  Alcotest.(check bool) "pairs collected" true (s1.num_pairs > 0);
  let s2 = Tdp.Extraction.round ex ~iter:10 in
  Alcotest.(check bool) "pairs monotone" true (s2.num_pairs >= s1.num_pairs);
  Alcotest.(check int) "rounds recorded" 2 (List.length (Tdp.Extraction.rounds ex))

let test_extraction_relax_ratchet () =
  let d = Helpers.chain_design () in
  (* Loose clock: nothing fails, relax must ratchet down. *)
  let ex = Tdp.Extraction.create (Sta.Timer.create d) ~config:Tdp.Config.default in
  let beta0 = Tdp.Extraction.effective_beta ex in
  ignore (Tdp.Extraction.round ex ~iter:0);
  let beta1 = Tdp.Extraction.effective_beta ex in
  Alcotest.(check bool) "relaxed" true (beta1 < beta0)

let test_extraction_global_topn_variant () =
  let d = Helpers.small_calibrated () in
  let rng = Util.Rng.create 4 in
  for id = 0 to Design.num_cells d - 1 do
    if Design.is_movable d id then begin
      d.x.{id} <- Util.Rng.float rng (Geom.Rect.width d.die);
      d.y.{id} <- Util.Rng.float rng (Geom.Rect.height d.die)
    end
  done;
  let cfg = { Tdp.Config.default with extraction = Tdp.Config.Global_topn { mult = 2 } } in
  let ex = Tdp.Extraction.create (Sta.Timer.create d) ~config:cfg in
  let s = Tdp.Extraction.round ex ~iter:0 in
  Alcotest.(check bool) "paths bounded by 2n" true (s.num_paths <= 2 * s.num_failing)

(* ---------------- Net weighting (DP4 baseline) ---------------- *)

let test_net_weighting_raises_critical () =
  let d = Helpers.chain_design () in
  d.clock_period <- 150.0;
  let nw = Tdp.Net_weighting.create (Sta.Timer.create d) in
  let tns, wns = Tdp.Net_weighting.round nw in
  Alcotest.(check bool) "violations seen" true (tns < 0.0 && wns < 0.0);
  (* All nets on the (entirely critical) chain get weight > 1. *)
  for nid = 0 to Design.num_nets d - 1 do
    Alcotest.(check bool)
      (Design.net_name d nid ^ " weighted")
      true
      (d.net_weight.{nid} > 1.0);
    (* Momentum bound: weight <= 1 + alpha. *)
    Alcotest.(check bool) "bounded" true (d.net_weight.{nid} <= 9.0 +. 1e-9)
  done;
  Design.reset_net_weights d

let test_net_weighting_no_change_when_met () =
  let d = Helpers.chain_design () in
  Design.reset_net_weights d;
  let nw = Tdp.Net_weighting.create (Sta.Timer.create d) in
  let tns, _ = Tdp.Net_weighting.round nw in
  check_float "no violation" 0.0 tns;
  for nid = 0 to Design.num_nets d - 1 do
    check_float "weight kept" 1.0 d.net_weight.{nid}
  done

let test_net_weighting_momentum_converges () =
  let d = Helpers.chain_design () in
  d.clock_period <- 150.0;
  Design.reset_net_weights d;
  let nw = Tdp.Net_weighting.create (Sta.Timer.create d) in
  for _ = 1 to 30 do
    ignore (Tdp.Net_weighting.round nw)
  done;
  (* The WNS-defining net converges to w_hat = 1 + alpha (crit = 1). *)
  let max_w = ref 0.0 in
  for nid = 0 to Design.num_nets d - 1 do
    max_w := Float.max !max_w d.net_weight.{nid}
  done;
  let max_w = !max_w in
  Alcotest.(check bool) "converges toward 1+alpha" true (max_w > 8.0);
  Design.reset_net_weights d

(* ---------------- Differentiable timing ---------------- *)

let test_diff_timing_smooth_ge_hard () =
  let d = Helpers.small_calibrated () in
  let dt = Tdp.Diff_timing.create ~par:(Helpers.par ()) d in
  ignore (Tdp.Diff_timing.round dt);
  (* log-sum-exp smooth max dominates the hard max. *)
  let timer = Sta.Timer.create ~topology:Sta.Delay.Star d in
  Sta.Timer.update timer;
  let arr_hard = Sta.Timer.arrivals timer in
  let g = Sta.Timer.graph timer in
  let arr_sm = Tdp.Diff_timing.smooth_arrivals dt in
  Array.iter
    (fun ep ->
      if Float.is_finite arr_hard.(ep) then
        Alcotest.(check bool) "smooth >= hard" true
          (arr_sm.(ep) >= arr_hard.(ep) -. 1e-6))
    g.Sta.Graph.endpoints

let test_diff_timing_gradient_descends () =
  let d = Helpers.small_calibrated () in
  (* Stack cells so timing is bad and gradients are meaningful. *)
  let rng = Util.Rng.create 9 in
  for id = 0 to Design.num_cells d - 1 do
    if Design.is_movable d id then begin
      d.x.{id} <- Util.Rng.float rng (Geom.Rect.width d.die);
      d.y.{id} <- Util.Rng.float rng (Geom.Rect.height d.die)
    end
  done;
  d.clock_period <- d.clock_period *. 0.7;
  let dt = Tdp.Diff_timing.create ~par:(Helpers.par ()) d in
  let tns0, _ = Tdp.Diff_timing.round dt in
  let n = Design.num_cells d in
  let gx = Array.make n 0.0 and gy = Array.make n 0.0 in
  Tdp.Diff_timing.add_grad dt ~gx ~gy;
  let gnorm = Array.fold_left (fun a v -> a +. Float.abs v) 0.0 gx in
  Alcotest.(check bool) "nonzero gradient" true (gnorm > 0.0);
  (* Take a small step along -grad; hard TNS should improve. *)
  let step = 0.5 /. Float.max 1e-9 (Array.fold_left (fun a v -> Float.max a (Float.abs v)) 0.0 gx) in
  for id = 0 to Design.num_cells d - 1 do
    if Design.is_movable d id then begin
      d.x.{id} <- d.x.{id} -. (step *. gx.(id));
      d.y.{id} <- d.y.{id} -. (step *. gy.(id))
    end
  done;
  Design.clamp_movable d;
  let tns1, _ = Tdp.Diff_timing.round dt in
  Alcotest.(check bool)
    (Printf.sprintf "tns improved (%.1f -> %.1f)" tns0 tns1)
    true (tns1 >= tns0)

(* ---------------- Distribution anchors ---------------- *)

let test_distribution_anchors () =
  let d = Helpers.small_calibrated () in
  let rng = Util.Rng.create 11 in
  for id = 0 to Design.num_cells d - 1 do
    if Design.is_movable d id then begin
      d.x.{id} <- Util.Rng.float rng (Geom.Rect.width d.die);
      d.y.{id} <- Util.Rng.float rng (Geom.Rect.height d.die)
    end
  done;
  d.clock_period <- d.clock_period *. 0.7;
  let ds = Tdp.Distribution.create (Sta.Timer.create d) in
  let tns, _ = Tdp.Distribution.round ds in
  Alcotest.(check bool) "violations" true (tns < 0.0);
  let n = Design.num_cells d in
  let gx = Array.make n 0.0 and gy = Array.make n 0.0 in
  Tdp.Distribution.add_grad ds ~gx ~gy;
  let gnorm = Array.fold_left (fun a v -> a +. Float.abs v) 0.0 gx in
  Alcotest.(check bool) "anchor forces exist" true (gnorm > 0.0);
  (* Gradients touch only movable cells. *)
  for id = 0 to Design.num_cells d - 1 do
    if not (Design.is_movable d id) then
      check_float "fixed untouched" 0.0 (Float.abs gx.(id) +. Float.abs gy.(id))
  done

(* ---------------- Flows (integration) ---------------- *)

let flow_cfg =
  (* Shrunk iteration budget for test speed. *)
  { Tdp.Config.default with timing_start = 120; extra_iters = 180 }

let test_flow_efficient_beats_vanilla () =
  let d = Helpers.small_calibrated () in
  let rv = Tdp.Flow.run Tdp.Flow.Vanilla d in
  let re = Tdp.Flow.run (Tdp.Flow.Efficient flow_cfg) d in
  Alcotest.(check bool)
    (Printf.sprintf "tns improved (%.0f -> %.0f)" rv.metrics.tns re.metrics.tns)
    true
    (re.metrics.tns > rv.metrics.tns);
  Alcotest.(check bool) "wns improved" true (re.metrics.wns >= rv.metrics.wns);
  Alcotest.(check bool) "curve recorded" true (re.curve <> []);
  Alcotest.(check bool) "extraction rounds recorded" true (re.extraction_rounds <> []);
  Alcotest.(check bool) "runtime positive" true (re.runtime > 0.0);
  Alcotest.(check bool) "legal output" true (Gp.Legalize.is_legal d)

let test_flow_breakdown_components () =
  let d = Helpers.small_calibrated () in
  let r = Tdp.Flow.run (Tdp.Flow.Efficient flow_cfg) d in
  let has k = List.mem_assoc k r.breakdown in
  Alcotest.(check bool) "wl_grad" true (has "wl_grad");
  Alcotest.(check bool) "density" true (has "density");
  Alcotest.(check bool) "optimizer" true (has "optimizer");
  Alcotest.(check bool) "sta" true (has "sta");
  Alcotest.(check bool) "extraction" true (has "extraction");
  Alcotest.(check bool) "legalize" true (has "legalize")

(* Each method's timing round and force (none for DP4) run under their
   own span names, which the Fig. 4 breakdown keys on. *)
let test_flow_all_methods_run () =
  let d = Helpers.small_calibrated () in
  let force_spans = [ "timing_grad"; "pp_grad" ] in
  List.iter
    (fun (meth, round_span, force_span) ->
      let r = Tdp.Flow.run meth d in
      Alcotest.(check bool)
        (r.name ^ " metrics sane")
        true
        (r.metrics.hpwl > 0.0 && r.metrics.tns <= 0.0 && r.metrics.wns <= 0.0);
      let has s = List.mem_assoc s r.breakdown in
      Alcotest.(check bool) (r.name ^ " round span " ^ round_span) true (has round_span);
      List.iter
        (fun s ->
          Alcotest.(check bool) (r.name ^ " force span " ^ s) (Some s = force_span) (has s))
        force_spans)
    [
      (Tdp.Flow.Dp4, "sta+weighting", None);
      (Tdp.Flow.Diff_tdp, "sta+backprop", Some "timing_grad");
      (Tdp.Flow.Dist_tdp, "sta+anchors", Some "timing_grad");
      (Tdp.Flow.Dp4_in_ours, "sta+weighting", Some "pp_grad");
      ( Tdp.Flow.Efficient { flow_cfg with loss = Tdp.Config.Linear },
        "sta+extraction",
        Some "pp_grad" );
      ( Tdp.Flow.Efficient { flow_cfg with extraction = Tdp.Config.Endpoint_based { k = 3 } },
        "sta+extraction",
        Some "pp_grad" );
    ]

let test_flow_deterministic () =
  let d = Helpers.small_calibrated () in
  let r1 = Tdp.Flow.run (Tdp.Flow.Efficient flow_cfg) d in
  let r2 = Tdp.Flow.run (Tdp.Flow.Efficient flow_cfg) d in
  check_float "same tns" r1.metrics.tns r2.metrics.tns;
  check_float "same hpwl" r1.metrics.hpwl r2.metrics.hpwl

(* A timing round fires at exactly [timing_start + k*m] (paper Sec.
   III-D), on a cold run and on a warm re-run (timing_start 20). *)
let test_flow_round_schedule () =
  let d = Helpers.small_calibrated () in
  let cfg = { flow_cfg with m = 7 } in
  let iters (r : Tdp.Flow.result) = List.map (fun (c : Tdp.Flow.curve_point) -> c.iter) r.curve in
  let expect ~start ~budget =
    List.init ((budget - start + cfg.m - 1) / cfg.m) (fun k -> start + (k * cfg.m))
  in
  let cold = Tdp.Flow.run (Tdp.Flow.Efficient cfg) d in
  Alcotest.(check (list int)) "cold rounds" (expect ~start:120 ~budget:300) (iters cold);
  let warm = Tdp.Flow.run ~warm:true (Tdp.Flow.Efficient cfg) d in
  Alcotest.(check (list int)) "warm rounds" (expect ~start:20 ~budget:80) (iters warm)

let test_pin_level_round () =
  let d = Helpers.small_calibrated () in
  let rng = Util.Rng.create 13 in
  for id = 0 to Design.num_cells d - 1 do
    if Design.is_movable d id then begin
      d.x.{id} <- Util.Rng.float rng (Geom.Rect.width d.die);
      d.y.{id} <- Util.Rng.float rng (Geom.Rect.height d.die)
    end
  done;
  d.clock_period <- d.clock_period *. 0.8;
  let pl = Tdp.Pin_level.create (Sta.Timer.create d) in
  let tns, wns = Tdp.Pin_level.round pl in
  Alcotest.(check bool) "violations seen" true (tns < 0.0 && wns < 0.0);
  let n = Design.num_cells d in
  let gx = Array.make n 0.0 and gy = Array.make n 0.0 in
  Tdp.Pin_level.add_grad pl ~gx ~gy;
  let gnorm = Array.fold_left (fun a v -> a +. Float.abs v) 0.0 gx in
  Alcotest.(check bool) "pin-level pairs pull" true (gnorm > 0.0);
  (* Action-reaction: total force is zero. *)
  check_float "sum zero" 0.0 (Array.fold_left ( +. ) 0.0 gx)

let test_pin_level_momentum_fold () =
  let d = Helpers.chain_design () in
  let pa = Tdp.Pin_attract.create d ~loss:Tdp.Config.Quadratic in
  Tdp.Pin_attract.update_pair_momentum pa ~pin_i:0 ~pin_j:1 ~w_hat:9.0 ~momentum:0.5;
  (* fresh pair starts at w_hat = 9 *)
  let v1 = Tdp.Pin_attract.loss_value pa in
  Tdp.Pin_attract.update_pair_momentum pa ~pin_i:0 ~pin_j:1 ~w_hat:1.0 ~momentum:0.5;
  (* 0.5*9 + 0.5*1 = 5 *)
  let v2 = Tdp.Pin_attract.loss_value pa in
  check_float "momentum fold" (5.0 /. 9.0) (v2 /. v1)

let suite =
  [
    ("pin-level ablation round", `Quick, test_pin_level_round);
    ("pin-level momentum fold", `Quick, test_pin_level_momentum_fold);
    ("eq9 first insert w0", `Quick, test_eq9_first_insert_w0);
    ("eq9 accumulates", `Quick, test_eq9_accumulates_on_repeat);
    ("eq9 path sharing", `Quick, test_eq9_path_sharing);
    ("stale decay + hold", `Quick, test_stale_decay);
    ("loss values hand computed", `Quick, test_loss_values_hand_computed);
    ("gradient antisymmetric + finite diff", `Quick, test_grad_antisymmetric_and_finite_diff);
    ("extraction round", `Quick, test_extraction_round);
    ("extraction relax ratchet", `Quick, test_extraction_relax_ratchet);
    ("extraction global topn", `Quick, test_extraction_global_topn_variant);
    ("net weighting raises critical", `Quick, test_net_weighting_raises_critical);
    ("net weighting idle when met", `Quick, test_net_weighting_no_change_when_met);
    ("net weighting momentum", `Quick, test_net_weighting_momentum_converges);
    ("diff timing smooth >= hard", `Quick, test_diff_timing_smooth_ge_hard);
    ("diff timing gradient descends", `Quick, test_diff_timing_gradient_descends);
    ("distribution anchors", `Quick, test_distribution_anchors);
    ("flow: efficient beats vanilla", `Slow, test_flow_efficient_beats_vanilla);
    ("flow: breakdown components", `Slow, test_flow_breakdown_components);
    ("flow: all methods run", `Slow, test_flow_all_methods_run);
    ("flow: deterministic", `Slow, test_flow_deterministic);
    ("flow: round schedule", `Slow, test_flow_round_schedule);
  ]
