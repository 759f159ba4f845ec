(** Arrival / required propagation and slack computation (late/max
    analysis — setup checks, the ICCAD2015 TDP contest metric). Pins
    unreachable from startpoints keep arrival -inf and never violate. *)

type t = {
  par : Util.Parallel.t; (* the level sweeps fan out on it *)
  arr : float array;
  req : float array;
  slack : float array;
  levels : int array array; (* pins bucketed by topological depth, built once *)
  mutable ranked : int array; (* the cached endpoint order of [ranking] *)
  mutable ranked_failing : int; (* its failing prefix; -1 until ranked *)
  mutable ranked_tail : bool; (* whether the rest is sorted too *)
}

val create : par:Util.Parallel.t -> Graph.t -> t

(** Forward arrivals, backward required times, slacks; call after the arc
    delays were refreshed. Levelized: each depth level fans out across
    the domains of [t.par] (max/min are exact, so results are bitwise
    equal to the sequential sweep). [obs] wraps the sweeps in
    [sta.arrival] / [sta.required] spans. Drops the cached {!ranking},
    which the next ranking query rebuilds (never [update] itself). *)
val update : ?obs:Obs.Ctx.t -> t -> Graph.t -> unit

(** Slack at an endpoint pin (infinite when unreachable). *)
val endpoint_slack : t -> Graph.t -> int -> float

(** Worst negative slack (0 when all met). *)
val wns : t -> Graph.t -> float

(** Sum of negative endpoint slacks. *)
val tns : t -> Graph.t -> float

(** All endpoints by slack, worst first, ties by pin id (a total
    order), with at least the first [n] entries in final order. Built on
    the first ranking query after an [update]: the failing endpoints are
    moved to the front and sorted, the rest only once a query needs more
    than them. Shared until the next [update]; must not be mutated. *)
val ranking : t -> Graph.t -> n:int -> int array

(** Number of failing endpoints: the negative-slack prefix of {!ranking}. *)
val num_failing : t -> Graph.t -> int

(** Endpoints with negative slack, worst first. *)
val failing_endpoints : t -> Graph.t -> int list
