(** The analytical global placement loop (vanilla DREAMPlace):

      min  sum_e w_e * WA_e(x, y) + lambda * Energy(x, y)

    solved with preconditioned Nesterov. Timing-driven flows plug in via
    {!hooks}, both called every iteration: [on_round] with the reference
    placement materialised (where a TDP flow decides whether to run STA
    and refresh weights); [extra_grad] to contribute additional gradient
    terms. The flow owns the timing schedule. *)

type params = {
  max_iters : int;
  min_iters : int;
  seed : int;
  warm_start : bool; (* skip the initial spread; resume from the design's
                        current (clamped) positions *)
}

val default_params : params

(** The run stops once overflow falls below this (after [min_iters]);
    the density multiplier stops growing the first time it does. *)
val stop_overflow : float

(** Consecutive divergence rollbacks before a hard
    [Util.Errors.Diverged] failure. *)
val max_recoveries : int

type hooks = {
  on_round : iter:int -> overflow:float -> unit;
  extra_grad : iter:int -> wl_norm:float -> gx:float array -> gy:float array -> unit;
      (** [wl_norm] is the L1 norm of the pure wirelength gradient over
          movable cells this iteration — the stable yardstick auxiliary
          (timing) forces are normalised against. *)
}

(** Power-of-two bin count heuristic for a design. *)
val auto_bins : Netlist.Design.t -> int

(** Gaussian spread around the die centre — the standard initialisation
    (called by {!run}; exposed for tests). *)
val initial_spread : Netlist.Design.t -> bin_w:float -> bin_h:float -> seed:int -> unit

type result = {
  iters : int;
  final_hpwl : float;
  final_overflow : float;
}

(** Runs global placement in place (re-initialises movable positions from
    [params.seed], unless [params.warm_start] keeps the current ones).
    Without [hooks] the loop runs no timing code at all.
    [obs] receives one [gp_iter] span per iteration
    (attributes: iter / overflow / gamma / lambda, plus hpwl whenever the
    iteration computes it) with [density] / [wl_grad] / [optimizer] child
    spans, iteration counters, and final hpwl/overflow gauges.
    Observation-only: results are identical with or without a context.
    The GP kernels run on [par] (default {!Util.Parallel.default}).

    Divergence guard: every iteration the gradient is checked finite (and
    the fresh iterate sample-probed); on detection the run counts
    [guard.nan_detected] (plus [guard.gradient_nonfinite] when the
    gradient check fired), rolls back to the last HPWL-verified checkpoint
    ([guard.rollbacks]) with backed-off step bounds, and raises
    [Util.Errors.Error (Diverged _)] after {!max_recoveries}
    consecutive rollbacks. Raises [Util.Errors.Error (Invalid_design _)]
    when the design has no movable cells. [fault] (robustness tests) is
    applied to each movable cell's x then y WA gradient component. *)
val run :
  ?par:Util.Parallel.t ->
  ?params:params ->
  ?hooks:hooks ->
  ?obs:Obs.Ctx.t ->
  ?heartbeat:Obs.Heartbeat.t ->
  ?fault:(float -> float) ->
  Netlist.Design.t ->
  result
