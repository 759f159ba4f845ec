(** Differentiable-timing baseline (Guo & Lin, DAC'22; fidelity notes in
    DESIGN.md): a smooth timer — log-sum-exp arrival propagation, softplus
    negative-slack loss — differentiated end to end by reverse-mode
    adjoints, chained through the star wire model to cell positions. *)

type t

val create : ?fault:(float -> float) -> par:Util.Parallel.t -> Netlist.Design.t -> t

(** One timing round: re-time (star model) and run the differentiable
    forward/backward passes. Returns (tns, wns) from the hard timer. *)
val round : t -> float * float

(** Smooth (log-sum-exp) arrival per pin from the last [round]. *)
val smooth_arrivals : t -> float array

(** Add dLoss/d(position); valid for the placement [round] last saw
    (flows reuse it between rounds). *)
val add_grad : t -> gx:float array -> gy:float array -> unit
