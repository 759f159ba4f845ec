(** End-to-end placement flows — every method compared in the paper's
    Tables II-IV, plus the ablation variants of Table III.

    All flows share the same analytical placement engine, initial
    placement (same seed), legalizer and evaluation; only the timing
    machinery differs:

    - [Vanilla]      — DREAMPlace: wirelength + density only.
    - [Dp4]          — DREAMPlace 4.0: momentum net weighting.
    - [Diff_tdp]     — Guo & Lin: differentiable smooth-TNS gradient.
    - [Dist_tdp]     — Lin et al.: expected-distribution anchors.
    - [Efficient c]  — the paper: pin-to-pin attraction via critical path
                       extraction, configured by [c] (loss kind,
                       extraction command, Eq. 9 weights). Table III rows
                       are [Efficient] with modified configs, except
                       'w/o path extraction' which is [Dp4_in_ours]. *)

open Netlist

type method_ =
  | Vanilla
  | Dp4
  | Diff_tdp
  | Dist_tdp
  | Efficient of Config.t
  | Dp4_in_ours (* ablation 'w/o Path Extraction': momentum pin-level
                   weighting inside our timing-phase schedule *)

let method_name = function
  | Vanilla -> "DREAMPlace"
  | Dp4 -> "DREAMPlace-4.0"
  | Diff_tdp -> "Differentiable-TDP"
  | Dist_tdp -> "Distribution-TDP"
  | Efficient _ -> "Efficient-TDP"
  | Dp4_in_ours -> "w/o-path-extraction"

let method_of_string ?(config = Config.default) = function
  | "vanilla" -> Vanilla
  | "dp4" -> Dp4
  | "diff" -> Diff_tdp
  | "dist" -> Dist_tdp
  | "efficient" -> Efficient config
  | "noextract" -> Dp4_in_ours
  | s ->
      Util.Errors.config_error ~what:"flow"
        ("unknown flow " ^ s ^ " (known: vanilla dp4 diff dist efficient noextract)")

type curve_point = { iter : int; hpwl : float; overflow : float; tns : float; wns : float }

type result = {
  name : string;
  design : string;
  metrics : Evalkit.Metrics.t; (* after legalization + detailed placement *)
  metrics_gp : Evalkit.Metrics.t; (* at the raw global-placement output *)
  runtime : float; (* whole flow wall-clock, seconds *)
  curve : curve_point list; (* timing-phase trajectory (Fig. 5) *)
  breakdown : (string * float) list; (* component total seconds (Fig. 4) *)
  breakdown_self : (string * float) list; (* component self seconds *)
  resource : Obs.Resource.delta; (* GC / peak-RSS accounting for the run *)
  extraction_rounds : Extraction.round_stats list; (* Efficient only *)
}

(** Timing analysis topology used *inside* flows (evaluation always uses
    Steiner): Star keeps per-round cost low, Steiner is more accurate.
    The paper's timer (OpenTimer + FLUTE) corresponds to Steiner. *)
let flow_topology = Sta.Delay.Steiner_tree

(* Scale an auxiliary gradient so its L1 norm is [mult] times the
   placement gradient's, then add it. Keeps every timing force a fixed
   fraction of the wirelength+density force regardless of design scale —
   the role of the paper's beta, made scale-free (DESIGN.md). The raw
   force lands in the scratch [tx]/[ty], zero-filled on every call. *)
let add_normalized ~tx ~ty ~obs ~mult ~wl_norm ~gx ~gy fill =
  let n = Array.length gx in
  Array.fill tx 0 n 0.0;
  Array.fill ty 0 n 0.0;
  fill ~gx:tx ~gy:ty;
  let aux = ref 0.0 in
  for i = 0 to n - 1 do
    aux := !aux +. Float.abs tx.(i) +. Float.abs ty.(i)
  done;
  (* A poisoned timing force (NaN/Inf in the auxiliary gradient, or a
     non-finite wirelength norm) would infect the whole iterate through
     the += below; drop the force for this iteration instead and let the
     placement gradient stand alone. *)
  if not (Float.is_finite !aux && Float.is_finite wl_norm) then
    Obs.Ctx.count obs "guard.nan_detected"
  else if !aux > 1e-30 then begin
    let s = mult *. wl_norm /. !aux in
    for i = 0 to n - 1 do
      gx.(i) <- gx.(i) +. (s *. tx.(i));
      gy.(i) <- gy.(i) +. (s *. ty.(i))
    done
  end

(* ---- best-checkpoint acceptance (pure; exposed for tests) ----
   [key] is the timing score (TNS + 0.1*WNS, larger better). A strictly
   better key always wins; within the eps band of the best key seen, a
   smaller HPWL wins the tie — but the recorded best key must never
   ratchet *down*: accepting a key eps below the current best and then
   another eps below that would let chained eps-sized regressions walk
   the "best" checkpoint arbitrarily far from the true maximum. Non-finite
   metrics (a poisoned timing round) are never checkpointed. *)
type checkpoint_decision = New_best | Tie_better_hpwl | Keep

let checkpoint_decision ~best_key ~best_hpwl ~key ~hpwl =
  if not (Float.is_finite key && Float.is_finite hpwl) then Keep
  else if not (Float.is_finite best_key) then New_best (* first checkpoint *)
  else begin
    let eps = 1e-9 +. (1e-4 *. Float.abs best_key) in
    if key > best_key +. eps then New_best
    else if key >= best_key -. eps && hpwl < best_hpwl then Tie_better_hpwl
    else Keep
  end

(* Warm (incremental) re-placement: the design already holds a converged
   legalized solution plus a small ECO delta, so the engine resumes from
   it instead of re-spreading, and the schedule shrinks — the density is
   near target from iteration 0 and the timing machinery only needs to
   repair the delta's neighbourhood, not rebuild the placement. *)
let gp_params ~warm ~seed =
  if warm then { Gp.Globalplace.seed; warm_start = true; min_iters = 60; max_iters = 400 }
  else { Gp.Globalplace.seed; warm_start = false; min_iters = 300; max_iters = 1000 }

let warm_config (cfg : Config.t) =
  { cfg with timing_start = 20; extra_iters = max 60 (cfg.extra_iters / 3) }

(* A timing flow runs a fixed budget: the timing phase plus the
   iterations before it. *)
let timing_gp_params ~warm ~seed (cfg : Config.t) =
  let budget = cfg.timing_start + cfg.extra_iters in
  { (gp_params ~warm ~seed) with min_iters = budget; max_iters = budget }

(* A timing method as the engine sees it: a round (re-time, refresh the
   method's state; returns tns, wns) run under [round_span], and
   optionally a force added to the placement gradient under [span],
   normalised to [mult ()] of the wirelength force. *)
type force = {
  span : string;
  mult : unit -> float;
  fill : gx:float array -> gy:float array -> unit;
}

type timing = { round_span : string; round : int -> float * float; force : force option }

(* The timing schedule (paper Sec. III-D): the phase starts at
   [cfg.timing_start]; from then on a round fires every [cfg.m]
   iterations and the force applies every iteration. The engine calls
   both hooks on every iteration. *)
let timing_hooks ~obs ~push_curve ~cells (cfg : Config.t) t =
  let start = cfg.timing_start and m = cfg.m in
  {
    Gp.Globalplace.on_round =
      (fun ~iter ~overflow ->
        if iter >= start && (iter - start) mod m = 0 then begin
          let tns, wns = Obs.Ctx.span obs t.round_span (fun () -> t.round iter) in
          push_curve ~iter ~overflow ~tns ~wns
        end);
    extra_grad =
      (match t.force with
      | None -> fun ~iter:_ ~wl_norm:_ ~gx:_ ~gy:_ -> ()
      | Some f ->
          let tx = Array.make cells 0.0 and ty = Array.make cells 0.0 in
          fun ~iter ~wl_norm ~gx ~gy ->
            if iter >= start then
              Obs.Ctx.span obs f.span (fun () ->
                  add_normalized ~tx ~ty ~obs ~mult:(f.mult ()) ~wl_norm ~gx ~gy f.fill));
  }

let run ?(par = Util.Parallel.default ()) ?(seed = 1) ?(warm = false) ?(legalize = true)
    ?(topology = flow_topology) ?obs ?heartbeat ?(fault = []) (meth : method_) (d : Design.t) =
  (* Default: a private context so [result.breakdown] is populated even
     when the caller doesn't care about tracing. An explicitly disabled
     context ([Obs.Ctx.null]) turns all observation off — breakdown comes
     back empty, placement results are identical either way. *)
  let obs = match obs with Some c -> c | None -> Obs.Ctx.create () in
  (* The breakdown is rebuilt from span aggregation (per-name total
     seconds, largest first). *)
  let agg = Obs.Agg.create () in
  let agg_sink = Obs.Agg.sink agg in
  Obs.Ctx.add_sink obs agg_sink;
  let res_before = Obs.Resource.sample () in
  let t_start = Unix.gettimeofday () in
  (* Reject malformed inputs up front with a structured error rather than
     letting NaN coordinates or dangling pins surface as divergence deep
     inside the optimiser. *)
  Design.validate_exn d;
  (match meth with Efficient cfg -> Config.validate_exn cfg | _ -> ());
  Design.reset_net_weights d;
  (* Fresh injectors per run: a plan's windows count this run's calls
     only, whatever ran before on the same process or daemon. *)
  let injectors = List.map (fun (site, spec) -> (site, Util.Fault.injector spec)) fault in
  let fault_at site = Option.map Util.Fault.apply (List.assoc_opt site injectors) in
  let elmore = fault_at Util.Fault.Elmore in
  (* The timing method's timer: the run's value and [elmore] fault. *)
  let timer ?obs topology = Sta.Timer.create ~par ?obs ~topology ?fault:elmore d in
  let curve = ref [] in
  (* Checkpoint the best placement seen at any timing round (by the flow
     timer's TNS, tie-broken by WNS): timing-driven runs can cycle once
     TNS reaches zero, so the final iterate is not necessarily the best. *)
  let best_key = ref Float.neg_infinity in
  let best_hpwl = ref Float.infinity in
  let best_snap = ref None in
  let push_curve ~iter ~overflow ~tns ~wns =
    (match heartbeat with Some hb -> Obs.Heartbeat.note_timing hb ~tns ~wns | None -> ());
    let key = tns +. (0.1 *. wns) in
    let hpwl = Design.total_hpwl d in
    (match checkpoint_decision ~best_key:!best_key ~best_hpwl:!best_hpwl ~key ~hpwl with
    | New_best ->
        best_key := key;
        best_hpwl := hpwl;
        best_snap := Some (Design.snapshot d)
    | Tie_better_hpwl ->
        (* Accept the placement, but never let an eps-sized key regression
           lower the bar for the next round (satellite fix: the old code
           overwrote [best_key] here, letting ties ratchet it down). *)
        best_key := Float.max !best_key key;
        best_hpwl := hpwl;
        best_snap := Some (Design.snapshot d)
    | Keep -> ());
    curve := { iter; hpwl; overflow; tns; wns } :: !curve
  in
  (* A warm run shrinks the timing schedule of whatever config the
     method carries (the [Efficient] payload, or the default the other
     timing methods share). *)
  let cfg = match meth with Efficient cfg -> cfg | _ -> Config.default in
  let cfg = if warm then warm_config cfg else cfg in
  let extraction_state = ref None in
  let timing =
    match meth with
    | Vanilla -> None
    | Dp4 ->
        let nw = Net_weighting.create (timer topology) in
        Some
          { round_span = "sta+weighting"; round = (fun _ -> Net_weighting.round nw); force = None }
    | Diff_tdp ->
        let dt = Diff_timing.create ?fault:elmore ~par d in
        Some
          {
            round_span = "sta+backprop";
            round = (fun _ -> Diff_timing.round dt);
            force =
              Some { span = "timing_grad"; mult = (fun () -> 0.4); fill = Diff_timing.add_grad dt };
          }
    | Dist_tdp ->
        let ds = Distribution.create (timer topology) in
        Some
          {
            round_span = "sta+anchors";
            round = (fun _ -> Distribution.round ds);
            force =
              Some { span = "timing_grad"; mult = (fun () -> 0.3); fill = Distribution.add_grad ds };
          }
    | Dp4_in_ours ->
        (* Our engine and pin-pair loss, but pin-level slack information
           with DP4's momentum scheme instead of path extraction (the
           paper's 'w/o Path Extraction' ablation). *)
        let pl = Pin_level.create (timer topology) in
        Some
          {
            round_span = "sta+weighting";
            round = (fun _ -> Pin_level.round pl);
            force =
              Some { span = "pp_grad"; mult = (fun () -> cfg.beta); fill = Pin_level.add_grad pl };
          }
    | Efficient _ ->
        let ex = Extraction.create ~obs (timer ~obs topology) ~config:cfg in
        extraction_state := Some ex;
        (* [Extraction.round] emits its own [sta] / [extraction] child
           spans, so the breakdown keeps both the combined and the
           per-component entries. *)
        let round iter =
          let r = Extraction.round ex ~iter in
          (match heartbeat with
          | Some hb ->
              Obs.Heartbeat.note_extraction hb ~failing:r.num_failing ~paths:r.num_paths
                ~pairs:r.num_pairs ~sta_s:r.sta_time ~extract_s:r.extract_time
          | None -> ());
          (r.tns, r.wns)
        in
        Some
          {
            round_span = "sta+extraction";
            round;
            force =
              Some
                {
                  span = "pp_grad";
                  mult = (fun () -> Extraction.effective_beta ex);
                  fill = Extraction.add_grad ex;
                };
          }
  in
  let gp_params, hooks =
    match timing with
    | None -> (gp_params ~warm ~seed, None)
    | Some t ->
        let hooks = timing_hooks ~obs ~push_curve ~cells:(Design.num_cells d) cfg t in
        (timing_gp_params ~warm ~seed cfg, Some hooks)
  in
  (* Each site reports its corrupted calls, also when the run fails. *)
  let report_faults () =
    List.iter
      (fun (site, inj) ->
        let by = float_of_int (Util.Fault.corrupted inj) in
        Obs.Ctx.count obs ~by ("fault." ^ Util.Fault.site_name site))
      injectors
  in
  let metrics_gp, metrics =
    Fun.protect ~finally:report_faults @@ fun () ->
    Obs.Ctx.span obs "flow"
      ~attrs:
        [
          ("method", Obs.Json.String (method_name meth));
          ("design", Obs.Json.String d.name);
          ("seed", Obs.Json.Int seed);
        ]
      (fun () ->
        let _gp =
          Gp.Globalplace.run ~par ~params:gp_params ?hooks ~obs ?heartbeat
            ?fault:(fault_at Util.Fault.Wl_grad) d
        in
        (* One clean scorer timer, built at the first score (Steiner, no
           fault, no observation): the method's timer never scores the
           run. Each score is a full re-time, as on a fresh timer. *)
        let scorer = lazy (Sta.Timer.create ~par ~topology:Sta.Delay.Steiner_tree d) in
        let evaluate () = Evalkit.Metrics.of_timer (Lazy.force scorer) in
        (* Keep the better of (final iterate, best checkpoint) under the
           common evaluation model. *)
        let metrics_gp =
          Obs.Ctx.span obs "evaluate" (fun () ->
              let final_m = evaluate () in
              match !best_snap with
              | None -> final_m
              | Some snap ->
                  let final_pos = Design.snapshot d in
                  Design.restore d snap;
                  let snap_m = evaluate () in
                  if snap_m.Evalkit.Metrics.tns > final_m.Evalkit.Metrics.tns then snap_m
                  else begin
                    Design.restore d final_pos;
                    final_m
                  end)
        in
        if legalize then begin
          Obs.Ctx.span obs "legalize" (fun () -> ignore (Gp.Legalize.run d));
          ignore (Obs.Ctx.span obs "detailed" (fun () -> Gp.Detailed.run d));
          (* The legalizer guarantees in-die, on-row, overlap-free cells;
             re-validate so any violation is a structured error at the
             flow boundary, not a silent bad result. *)
          Design.validate_exn ~placed:true d
        end;
        let metrics = Obs.Ctx.span obs "evaluate" evaluate in
        Obs.Ctx.gauge obs "flow.hpwl" metrics.Evalkit.Metrics.hpwl;
        Obs.Ctx.gauge obs "flow.tns" metrics.Evalkit.Metrics.tns;
        Obs.Ctx.gauge obs "flow.wns" metrics.Evalkit.Metrics.wns;
        (metrics_gp, metrics))
  in
  let runtime = Unix.gettimeofday () -. t_start in
  Obs.Ctx.remove_sink obs agg_sink;
  Obs.Resource.update_gauges obs;
  {
    name = method_name meth;
    design = d.name;
    metrics;
    metrics_gp;
    runtime;
    curve = List.rev !curve;
    breakdown = Obs.Agg.to_breakdown agg;
    breakdown_self = Obs.Agg.to_self_breakdown agg;
    resource = Obs.Resource.delta ~before:res_before ~after:(Obs.Resource.sample ());
    extraction_rounds =
      (match !extraction_state with None -> [] | Some ex -> Extraction.rounds ex);
  }

(* ---- structured (JSON) result serialisation, shared by the [place]
   binary's --report-json and the bench harness's --json output ---- *)

let metrics_to_json (m : Evalkit.Metrics.t) =
  Obs.Json.Obj
    [
      ("hpwl", Obs.Json.Float m.Evalkit.Metrics.hpwl);
      ("tns", Obs.Json.Float m.Evalkit.Metrics.tns);
      ("wns", Obs.Json.Float m.Evalkit.Metrics.wns);
      ("num_failing", Obs.Json.Int m.Evalkit.Metrics.num_failing);
      ("num_endpoints", Obs.Json.Int m.Evalkit.Metrics.num_endpoints);
    ]

let curve_point_to_json (c : curve_point) =
  Obs.Json.Obj
    [
      ("iter", Obs.Json.Int c.iter);
      ("hpwl", Obs.Json.Float c.hpwl);
      ("overflow", Obs.Json.Float c.overflow);
      ("tns", Obs.Json.Float c.tns);
      ("wns", Obs.Json.Float c.wns);
    ]

let round_stats_to_json (r : Extraction.round_stats) =
  Obs.Json.Obj
    [
      ("iter", Obs.Json.Int r.Extraction.iter);
      ("tns", Obs.Json.Float r.Extraction.tns);
      ("wns", Obs.Json.Float r.Extraction.wns);
      ("num_failing", Obs.Json.Int r.Extraction.num_failing);
      ("num_paths", Obs.Json.Int r.Extraction.num_paths);
      ("num_pairs", Obs.Json.Int r.Extraction.num_pairs);
      ("sta_time", Obs.Json.Float r.Extraction.sta_time);
      ("extract_time", Obs.Json.Float r.Extraction.extract_time);
    ]

let result_to_json (r : result) =
  Obs.Json.Obj
    [
      ("name", Obs.Json.String r.name);
      ("design", Obs.Json.String r.design);
      ("runtime", Obs.Json.Float r.runtime);
      ("metrics", metrics_to_json r.metrics);
      ("metrics_gp", metrics_to_json r.metrics_gp);
      ("curve", Obs.Json.List (List.map curve_point_to_json r.curve));
      ( "breakdown",
        Obs.Json.Obj (List.map (fun (n, s) -> (n, Obs.Json.Float s)) r.breakdown) );
      ( "breakdown_self",
        Obs.Json.Obj (List.map (fun (n, s) -> (n, Obs.Json.Float s)) r.breakdown_self) );
      ("resource", Obs.Resource.delta_to_json r.resource);
      ("extraction_rounds", Obs.Json.List (List.map round_stats_to_json r.extraction_rounds));
    ]
