(** Facade over the static timing engine — the OpenTimer-equivalent
    object a placement flow talks to.

    Typical use:
    {[
      let timer = Timer.create design ~topology:Delay.Steiner_tree in
      Timer.update timer;                   (* after every placement change *)
      let tns = Timer.tns timer in
      let paths = Timer.report_timing_endpoint timer ~n ~k:1 in
    ]} *)

type t = {
  design : Netlist.Design.t;
  graph : Graph.t;
  delay : Delay.t;
  prop : Propagate.t;
  early : Early.t;
  mutable search : Paths.workspace array; (* one per extraction chunk, grown on demand *)
  obs : Obs.Ctx.t;
  mutable up_to_date : bool;
  mutable early_up_to_date : bool;
}

let create ?(topology = Delay.Steiner_tree) ?(obs = Obs.Ctx.null) ?fault design =
  let graph = Graph.build design in
  {
    design;
    graph;
    delay = Delay.create ?fault graph ~topology;
    prop = Propagate.create graph;
    early = Early.create graph;
    search = [||];
    obs;
    up_to_date = false;
    early_up_to_date = false;
  }

let graph t = t.graph

let arrivals t = t.prop.Propagate.arr

let slacks t = t.prop.Propagate.slack

(** Full re-time from the current placement: delays, slews, arrivals,
    required times, slacks. One [sta.update] span per round, with
    [sta.delay] / [sta.arrival] / [sta.required] child spans. *)
let update t =
  Obs.Ctx.span t.obs "sta.update" (fun () ->
      Obs.Ctx.span t.obs "sta.delay" (fun () -> Delay.update t.delay);
      Propagate.update ~obs:t.obs t.prop t.graph;
      Obs.Ctx.count t.obs "sta.full_updates");
  t.up_to_date <- true;
  t.early_up_to_date <- false

let ensure t = if not t.up_to_date then update t

(** Placement moved: mark timing stale. *)
let invalidate t =
  t.up_to_date <- false;
  t.early_up_to_date <- false

(** Retarget the clock period without rebuilding the graph: the period
    is baked into the endpoint required times at [Graph.build], so a
    bare [design.clock_period <- p] would silently keep timing against
    the old clock. Refreshes the boundary conditions in place and marks
    timing stale; arc delays are placement-derived and survive. *)
let set_clock t period =
  if not (Float.is_finite period && period > 0.0) then
    Util.Errors.config_error ~what:"clock"
      (Printf.sprintf "clock period must be finite and positive, got %g" period);
  t.design.Netlist.Design.clock_period <- period;
  Graph.refresh_boundary t.graph;
  invalidate t

(** Incremental re-time after moving only [cells]: refreshes the delays of
    the nets those cells touch, then re-propagates. Much cheaper than
    [update] when few cells moved (delay calculation dominates; the
    propagation sweeps are linear and always run). *)
let update_moved t ~cells =
  if not t.up_to_date then update t
  else begin
    Obs.Ctx.span t.obs "sta.update" (fun () ->
        Obs.Ctx.span t.obs "sta.delay" (fun () -> Delay.update_moved t.delay ~cells);
        Propagate.update ~obs:t.obs t.prop t.graph;
        Obs.Ctx.count t.obs "sta.incremental_updates");
    t.early_up_to_date <- false
  end

let wns t =
  ensure t;
  Propagate.wns t.prop t.graph

let tns t =
  ensure t;
  Propagate.tns t.prop t.graph

let retime t =
  update t;
  let tns = tns t in
  (tns, wns t)

let endpoint_slack t pin =
  ensure t;
  Propagate.endpoint_slack t.prop t.graph pin

let failing_endpoints t =
  ensure t;
  Propagate.failing_endpoints t.prop t.graph

let num_failing_endpoints t =
  ensure t;
  Propagate.num_failing t.prop t.graph

(* The path-search workspaces, one per chunk of a non-empty fan-out. *)
let workspaces t =
  let k = Util.Parallel.chunk_count ~n:1 in
  let have = Array.length t.search in
  if have < k then
    t.search <- Array.init k (fun i -> if i < have then t.search.(i) else Paths.workspace ());
  t.search

let report_timing ?failing_only ?cap t ~n =
  ensure t;
  Report.report_timing ?failing_only ?cap (workspaces t) t.prop t.graph ~n

let report_timing_endpoint ?failing_only t ~n ~k =
  ensure t;
  Report.report_timing_endpoint ?failing_only (workspaces t) t.prop t.graph ~n ~k

let k_worst t ~endpoint ~k =
  ensure t;
  Paths.k_worst (workspaces t).(0) t.graph t.prop.Propagate.arr ~endpoint ~k

let worst_path t ~endpoint =
  ensure t;
  Paths.worst_path (workspaces t).(0) t.graph t.prop.Propagate.arr ~endpoint

(** The single most critical path of the design (None when nothing is
    reachable). *)
let critical_path t =
  ensure t;
  let ranked = Propagate.ranking t.prop t.graph ~n:1 in
  if Array.length ranked = 0 then None else worst_path t ~endpoint:ranked.(0)

let stats_of_paths t paths ~elapsed = Report.stats_of t.graph paths ~elapsed

(** Net wirelength as routed by the timer's topology (for reports). *)
let net_wirelen t nid = t.delay.Delay.net_wirelen.(nid)

(* ---- electrical design-rule checks (DRV) ---- *)

type drv = {
  cap_violations : int; (* nets whose driver load exceeds max_cap *)
  slew_violations : int; (* pins whose slew exceeds max_slew *)
  worst_cap : float;
  worst_slew : float;
}

(** Max-capacitance / max-slew checks over the current timing state —
    the DRV half of a timing signoff report. Thresholds default to
    library-reasonable values (fF, ps). *)
let check_drv ?(max_cap = 60.0) ?(max_slew = 120.0) t =
  ensure t;
  let cap_violations = ref 0 and worst_cap = ref 0.0 in
  Array.iter
    (fun c ->
      if c > !worst_cap then worst_cap := c;
      if c > max_cap then incr cap_violations)
    t.delay.Delay.net_cap;
  let slew_violations = ref 0 and worst_slew = ref 0.0 in
  Array.iter
    (fun s ->
      if s > !worst_slew then worst_slew := s;
      if s > max_slew then incr slew_violations)
    t.delay.Delay.slew;
  {
    cap_violations = !cap_violations;
    slew_violations = !slew_violations;
    worst_cap = !worst_cap;
    worst_slew = !worst_slew;
  }

(* ---- hold (early) analysis, computed on demand ---- *)

let ensure_early t =
  ensure t;
  if not t.early_up_to_date then begin
    Early.update t.early t.graph;
    t.early_up_to_date <- true
  end

(** Worst hold slack (0 when every hold check is met). *)
let whs t =
  ensure_early t;
  Early.whs t.early t.graph

(** Total negative hold slack. *)
let ths t =
  ensure_early t;
  Early.ths t.early t.graph

(** Hold-violating endpoints, worst first. *)
let hold_violations t =
  ensure_early t;
  Early.violations t.early t.graph

(** Early (min) arrival times; valid after any hold query. *)
let early_arrivals t =
  ensure_early t;
  t.early.Early.arr_early
