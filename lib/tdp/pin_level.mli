(** Pin-level timing weighting — the 'w/o Path Extraction' ablation: our
    pin-pair attraction machinery fed by per-pin slacks with DP4-style
    momentum, no critical path extraction (so path sharing is invisible). *)

type t

val create : Sta.Timer.t -> t

(** One timing round; returns (tns, wns). *)
val round : t -> float * float

(** Unscaled pair gradient (flows normalise and scale it). *)
val add_grad : t -> gx:float array -> gy:float array -> unit
