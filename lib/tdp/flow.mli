(** End-to-end placement flows — every method of the paper's Tables II-IV
    plus the Table III ablation variants. All flows share the engine,
    initial placement, legalizer and evaluation; only the timing machinery
    differs. *)

type method_ =
  | Vanilla (* DREAMPlace: wirelength + density only *)
  | Dp4 (* DREAMPlace 4.0: momentum net weighting *)
  | Diff_tdp (* Guo & Lin: differentiable smooth-TNS gradient *)
  | Dist_tdp (* Lin et al.: expected-distribution anchors *)
  | Efficient of Config.t (* the paper *)
  | Dp4_in_ours (* ablation 'w/o path extraction' *)

val method_name : method_ -> string

(** The CLI/daemon flow names (vanilla dp4 diff dist efficient noextract;
    [config] is efficient's); anything else is a [Config_error]. *)
val method_of_string : ?config:Config.t -> string -> method_

type curve_point = { iter : int; hpwl : float; overflow : float; tns : float; wns : float }

type result = {
  name : string;
  design : string;
  metrics : Evalkit.Metrics.t; (* after legalization + detailed placement *)
  metrics_gp : Evalkit.Metrics.t; (* at the raw global-placement output *)
  runtime : float; (* whole-flow wall clock, seconds *)
  curve : curve_point list; (* timing-phase trajectory (Fig. 5) *)
  breakdown : (string * float) list; (* component seconds (Fig. 4) *)
  breakdown_self : (string * float) list; (* per-phase self seconds *)
  resource : Obs.Resource.delta; (* GC / peak-RSS telemetry for the flow *)
  extraction_rounds : Extraction.round_stats list; (* Efficient only *)
}

(** Timing topology used inside flows (evaluation always uses Steiner). *)
val flow_topology : Sta.Delay.topology

(** Best-checkpoint acceptance rule (pure; exposed for unit tests).
    [key] is the timing score (larger better). A strictly better key wins
    outright; within the eps band of [best_key], a smaller HPWL wins the
    tie — in which case the caller must keep [max best_key key] as the new
    best key so eps-sized regressions cannot ratchet the bar down.
    Non-finite [key]/[hpwl] always yield [Keep]. *)
type checkpoint_decision = New_best | Tie_better_hpwl | Keep

val checkpoint_decision :
  best_key:float -> best_hpwl:float -> key:float -> hpwl:float -> checkpoint_decision

(** Runs the flow in place: re-initialises the placement from [seed],
    optimises, keeps the best timing checkpoint, legalises (unless
    [legalize:false]) and scores with the common evaluation kit.

    [warm] (default false) runs the incremental re-placement schedule:
    the engine keeps the design's current (clamped) positions instead of
    the Gaussian spread and the timing phase shrinks to roughly a third
    of its cold length (timing_start 20) — the daemon's [replace] path
    after a small ECO delta, several times faster than a cold run while
    converging to comparable WNS/TNS from a near-converged start.

    [obs] is the observability context the whole pipeline reports
    through: a [flow] root span (with gp / sta / extraction descendants),
    counters and gauges. When omitted, a private context is created so
    [result.breakdown] stays populated; pass [Obs.Ctx.null] to switch
    observation off entirely (breakdown comes back empty). Placement
    results are bit-identical in every case — observability is
    observation-only.

    [fault] (robustness tests; default none) gets fresh injectors for
    this run: [wl_grad] in {!Gp.Globalplace.run}, [elmore] in the timing
    machinery's timers (evaluation stays clean). Each site adds its
    corrupted calls to a [fault.<site>] counter, also when the run raises.

    Global placement and every timer the run builds (the method's and
    evaluation's) run on [par] (default {!Util.Parallel.default}).

    Raises [Util.Errors.Error]: [Invalid_design] if the input fails
    [Netlist.Design.validate] (also re-checked with [~placed:true] after
    legalization), [Config_error] for an out-of-range [Efficient] config,
    and [Diverged] if the placement engine exhausts its rollback budget. *)
val run :
  ?par:Util.Parallel.t ->
  ?seed:int ->
  ?warm:bool ->
  ?legalize:bool ->
  ?topology:Sta.Delay.topology ->
  ?obs:Obs.Ctx.t ->
  ?heartbeat:Obs.Heartbeat.t ->
  ?fault:Util.Fault.plan ->
  method_ ->
  Netlist.Design.t ->
  result

(** Structured serialisations (the [place --report-json] / bench [--json]
    payloads). *)
val metrics_to_json : Evalkit.Metrics.t -> Obs.Json.t

val result_to_json : result -> Obs.Json.t
