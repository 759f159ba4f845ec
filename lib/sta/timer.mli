(** Facade over the static timing engine — the OpenTimer-equivalent object
    a placement flow talks to.

    {[
      let timer = Timer.create design ~topology:Delay.Steiner_tree in
      Timer.update timer;
      let tns = Timer.tns timer in
      let paths = Timer.report_timing_endpoint timer ~n ~k:1 in
    ]} *)

type t

(** Builds the timing graph; [topology] picks the wire model (default
    Steiner trees, matching the evaluation kit). [obs] receives a
    [sta.update] span per re-time (children [sta.delay] / [sta.arrival] /
    [sta.required]) plus full/incremental update counters. [fault]
    (robustness tests) is applied to every Elmore node delay. *)
val create :
  ?topology:Delay.topology -> ?obs:Obs.Ctx.t -> ?fault:(float -> float) -> Netlist.Design.t -> t

val graph : t -> Graph.t

(** Current arrival times (valid after an update). *)
val arrivals : t -> float array

val slacks : t -> float array

(** Full re-time from the current placement. *)
val update : t -> unit

(** Mark timing stale after a placement change; queries re-time lazily. *)
val invalidate : t -> unit

(** Retarget the clock period in place (writes [design.clock_period],
    refreshes the graph's baked-in endpoint required times, invalidates).
    The warm-cache path for a constraint ECO — the graph, RC trees and
    arc delays survive. Raises [Util.Errors.Error (Config_error _)] for
    a non-finite or non-positive period. *)
val set_clock : t -> float -> unit

(** Incremental re-time after moving only [cells] (falls back to a full
    update when the timer was stale). *)
val update_moved : t -> cells:int list -> unit

val wns : t -> float

val tns : t -> float

(** Full re-time from the current placement, then [(tns t, wns t)]: the
    refresh every timing round starts with. *)
val retime : t -> float * float

val endpoint_slack : t -> int -> float

(** The ranking queries ([failing_endpoints], [num_failing_endpoints],
    the report commands, [critical_path]) read one endpoint order, built
    by the first of them after each re-time ({!Propagate.ranking}). The
    path searches reuse the timer's workspaces, so a warm query
    allocates little beyond the paths it returns. *)

val failing_endpoints : t -> int list

val num_failing_endpoints : t -> int

val report_timing : ?failing_only:bool -> ?cap:int -> t -> n:int -> Paths.path list

val report_timing_endpoint : ?failing_only:bool -> t -> n:int -> k:int -> Paths.path list

(** {!Paths.k_worst} on the current timing, in the timer's workspace. *)
val k_worst : t -> endpoint:int -> k:int -> Paths.path list

(** {!Paths.worst_path} on the current timing. *)
val worst_path : t -> endpoint:int -> Paths.path option

(** The single most critical path of the design. *)
val critical_path : t -> Paths.path option

val stats_of_paths : t -> Paths.path list -> elapsed:float -> Report.stats

(** Routed wirelength of a net under the timer's topology. *)
val net_wirelen : t -> int -> float

type drv = {
  cap_violations : int; (* nets whose driver load exceeds max_cap *)
  slew_violations : int; (* pins whose slew exceeds max_slew *)
  worst_cap : float;
  worst_slew : float;
}

(** Max-capacitance / max-slew electrical rule checks (the DRV half of a
    signoff report); thresholds in fF / ps. *)
val check_drv : ?max_cap:float -> ?max_slew:float -> t -> drv

(** Worst hold slack, 0 when met (early analysis runs on demand). *)
val whs : t -> float

(** Total negative hold slack. *)
val ths : t -> float

(** Hold-violating endpoints, worst first. *)
val hold_violations : t -> int list

(** Early (min) arrival times. *)
val early_arrivals : t -> float array
