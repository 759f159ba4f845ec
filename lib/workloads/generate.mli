(** Synthetic netlist generator: levelized sequential circuits with shared
    register-to-register paths, long-tail fanout (hub nets), macros and
    boundary IO. Deterministic given [Genparams.seed]. Construction notes
    at the top of the implementation. *)

(** Wire parasitics baked into generated designs (per site). *)
val wire_r : float

val wire_c : float

val row_height : float

val generate : Genparams.t -> Netlist.Design.t

(** Calibrate the clock so that roughly [1 - quantile] of endpoints fail
    under a vanilla global placement (the paper's operating regime).
    Mutates [d.clock_period]; restores the pre-calibration placement.
    Returns the period. *)
val calibrate_clock : Netlist.Design.t -> quantile:float -> float
