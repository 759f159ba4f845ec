(** Wirelength models: exact HPWL and the smooth weighted-average (WA)
    approximation with analytic gradients — the DREAMPlace wirelength
    objective. WA underestimates HPWL and converges to it as gamma -> 0.
    Pure: fault injection happens in {!Globalplace.run}. *)

(** Exact net-weighted HPWL. *)
val weighted_hpwl : Netlist.Design.t -> float

(** Reusable kernel scratch (per-chunk exponent buffers, per-pin gradient
    slots, the cell->slot CSR). Create once per design; the gradient
    kernel then runs allocation-free in steady state. *)
type ws

(** The workspace keeps [par] and sizes one scratch lane per domain. *)
val make_ws : par:Util.Parallel.t -> Netlist.Design.t -> ws

(** Smooth weighted wirelength of the whole design; adds its gradient
    w.r.t. cell centres into [gx]/[gy] (cell-indexed; fixed cells receive
    gradient too — callers ignore them). Returns the smooth value.
    Allocation-free in steady state; the result does not depend on the
    domain count. *)
val wa_wirelength_grad_ws :
  ws -> Netlist.Design.t -> gamma:float -> gx:float array -> gy:float array -> float

(** One-shot variant of {!wa_wirelength_grad_ws} building a fresh
    workspace per call — cold paths and tests. *)
val wa_wirelength_grad :
  par:Util.Parallel.t -> Netlist.Design.t -> gamma:float -> gx:float array -> gy:float array ->
  float
