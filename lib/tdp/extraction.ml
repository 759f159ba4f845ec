(** The timing-round driver: every m placement iterations, re-time the
    design, extract critical paths with the configured command and fold
    them into the pin-pair set (paper Sec. III-D workflow).

    Extraction commands:
    - [Endpoint_based {k}]: report_timing_endpoint(n, k) with n = number
      of failing endpoints (the paper's method);
    - [Global_topn {mult}]: report_timing(n * mult) — the OpenTimer-style
      ablation ('w/ rpt_timing(n*10)'). *)

type round_stats = {
  iter : int;
  tns : float;
  wns : float;
  num_failing : int;
  num_paths : int;
  num_pairs : int; (* size of P after the round *)
  sta_time : float;
  extract_time : float;
}

type t = {
  timer : Sta.Timer.t;
  attract : Pin_attract.t;
  config : Config.t;
  obs : Obs.Ctx.t;
  mutable relax : float; (* multiplies beta: ratchets down once timing is
                            met so wirelength can recover, back up if
                            violations return *)
  mutable rounds : round_stats list; (* newest first *)
}

let create ?(obs = Obs.Ctx.null) timer ~(config : Config.t) =
  {
    timer;
    attract = Pin_attract.create (Sta.Timer.design timer) ~loss:config.loss;
    config;
    obs;
    relax = 1.0;
    rounds = [];
  }

(** One timing round at placement iteration [iter]. Returns the stats.
    Emits [sta] / [extraction] spans and per-round counters (failing
    endpoints visited, paths extracted, pair-weight updates). *)
let round t ~iter =
  let cfg = t.config in
  let t0 = Unix.gettimeofday () in
  let tns, wns, n =
    Obs.Ctx.span t.obs "sta" (fun () ->
        let tns, wns = Sta.Timer.retime t.timer in
        (tns, wns, Sta.Timer.num_failing_endpoints t.timer))
  in
  (* A poisoned timing graph (NaN/Inf arrival times, e.g. from corrupt
     wire parasitics) would push non-finite slack ratios into the pair
     weights and from there into the gradient. Skip the whole update for
     this round — the previous pair set keeps pulling, and the next clean
     STA round resumes normally. *)
  let timing_ok = Float.is_finite tns && Float.is_finite wns in
  if not timing_ok then begin
    Obs.Ctx.count t.obs "guard.nan_detected";
    Obs.Log.warn "[extraction] non-finite timing at iter %d (tns=%g wns=%g): round skipped"
      iter tns wns
  end;
  let t1 = Unix.gettimeofday () in
  let paths =
    Obs.Ctx.span t.obs "extraction" (fun () ->
        if n = 0 || not timing_ok then []
        else
          match cfg.extraction with
          | Config.Endpoint_based { k } -> Sta.Timer.report_timing_endpoint t.timer ~n ~k
          | Config.Global_topn { mult } -> Sta.Timer.report_timing t.timer ~n:(n * mult))
  in
  let t2 = Unix.gettimeofday () in
  if timing_ok then begin
    if n = 0 then t.relax <- Float.max 0.15 (t.relax *. 0.7)
    else t.relax <- Float.min 1.0 (t.relax *. 1.3)
  end;
  let graph = Sta.Timer.graph t.timer in
  let updates_before = Pin_attract.num_updates t.attract in
  if timing_ok then
    Pin_attract.update_from_paths t.attract graph ~w0:cfg.w0 ~w1:cfg.w1 ~wns
      ~stale_decay:cfg.stale_decay paths;
  let stats =
    {
      iter;
      tns;
      wns;
      num_failing = n;
      num_paths = List.length paths;
      num_pairs = Pin_attract.num_pairs t.attract;
      sta_time = t1 -. t0;
      extract_time = t2 -. t1;
    }
  in
  if Obs.Ctx.enabled t.obs then begin
    Obs.Ctx.count t.obs "extraction.rounds";
    Obs.Ctx.count t.obs ~by:(float_of_int n) "extraction.endpoints_visited";
    Obs.Ctx.count t.obs ~by:(float_of_int stats.num_paths) "extraction.paths";
    Obs.Ctx.count t.obs
      ~by:(float_of_int (Pin_attract.num_updates t.attract - updates_before))
      "extraction.pair_updates";
    Obs.Ctx.gauge t.obs "extraction.num_pairs" (float_of_int stats.num_pairs);
    Obs.Ctx.gauge t.obs "extraction.tns" tns;
    Obs.Ctx.gauge t.obs "extraction.wns" wns
  end;
  t.rounds <- stats :: t.rounds;
  stats

(** Raw (unscaled) gradient of the pin-pair loss; the flow normalises it
    against the placement gradient and applies the beta fraction. *)
let add_grad t ~gx ~gy = Pin_attract.add_grad t.attract ~gx ~gy

(** Current effective beta fraction (config beta times the relax ratchet). *)
let effective_beta t = t.config.Config.beta *. t.relax

let rounds t = List.rev t.rounds
