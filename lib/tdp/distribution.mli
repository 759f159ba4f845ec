(** Distribution-TDP baseline (Lin et al., ISPD'24), approximated as
    expected-position anchors: each cell on a failing endpoint's worst
    path is pulled toward the midpoint of its path neighbours with a
    criticality-weighted spring (see DESIGN.md for the substitution). *)

type t

val create : Sta.Timer.t -> t

(** One timing round: re-time, rebuild the anchor set. Returns (tns, wns). *)
val round : t -> float * float

(** Unscaled spring gradient toward the anchors (the flow normalises it). *)
val add_grad : t -> gx:float array -> gy:float array -> unit
