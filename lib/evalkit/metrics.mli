(** The common scorer applied to every flow's output — the stand-in for
    the ICCAD2015 contest evaluation kit. All flows are measured with the
    same Steiner-Elmore timing model regardless of their internal timer. *)

type t = {
  hpwl : float;
  tns : float;
  wns : float;
  num_failing : int;
  num_endpoints : int;
}

(** Score the timer's design after a full {!Sta.Timer.update}: equals
    {!evaluate} on a clean (no fault) Steiner-tree timer. *)
val of_timer : Sta.Timer.t -> t

(** Evaluate the design's current placement on a fresh Steiner-tree
    timer; the timer runs on [par] (default {!Util.Parallel.default}). *)
val evaluate : ?par:Util.Parallel.t -> Netlist.Design.t -> t

val pp : Format.formatter -> t -> unit

(** |value| / |base| for non-positive metrics, 0/0 = 1, x/0 = infinity. *)
val neg_metric_ratio : value:float -> base:float -> float
