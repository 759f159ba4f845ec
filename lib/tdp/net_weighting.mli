(** DREAMPlace 4.0 baseline: momentum-based net weighting from pin-level
    slacks (paper Sec. II-C / Eq. 5). Pin-level information cannot see
    path sharing — the limitation Sec. III-A motivates. *)

type t

(** Criticality gain and momentum of the update (shared by {!Pin_level}). *)
val alpha : float

val momentum : float

val create : Sta.Timer.t -> t

(** One timing round: re-time and refresh every net's weight in place.
    Returns (tns, wns). *)
val round : t -> float * float
