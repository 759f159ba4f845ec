(** Differentiable-timing baseline (Guo & Lin, DAC'22; fidelity notes in
    DESIGN.md): a smooth timer — log-sum-exp arrival propagation, softplus
    negative-slack loss — differentiated end to end by reverse-mode
    adjoints, chained through the star wire model to cell positions. *)

type t = {
  design : Netlist.Design.t;
  timer : Sta.Timer.t; (* star topology, matching the gradient model *)
  gamma_sm : float; (* smooth-max temperature, ps *)
  eta : float; (* softplus sharpness, ps *)
  arr_sm : float array; (* smooth arrivals (exposed for tests) *)
  adjoint : float array;
  dl_darc : float array;
}

val create : ?gamma_sm:float -> ?eta:float -> ?fault:(float -> float) -> Netlist.Design.t -> t

(** One timing round: re-time (star model) and run the differentiable
    forward/backward passes. Returns (tns, wns) from the hard timer. *)
val round : t -> float * float

(** Add [mult] * dLoss/d(position); valid for the placement [round] last
    saw (flows reuse it between rounds). *)
val add_grad : t -> mult:float -> gx:float array -> gy:float array -> unit
