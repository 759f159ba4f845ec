(** Electrostatic density force (ePlace): bin charges induce a potential
    via Poisson's equation; its negative gradient moves cells from
    over-filled to under-filled regions. Cell charge = cell area. *)

type t = {
  grid : Densitygrid.t;
  poisson : Numerics.Poisson.t;
  obs : Obs.Ctx.t; (* routes the in-kernel finiteness probe *)
  (* Allocated once in [create]; rewritten in place by every [solve]. *)
  rho : float array;
  psi : float array;
  ex : float array; (* field, grid units *)
  ey : float array;
}

val create : ?obs:Obs.Ctx.t -> Densitygrid.t -> t

(** Re-solve potential and field; call after [Densitygrid.update]. The
    energy itself never drives the optimizer (only its gradient, the
    field, does); [Numerics.Poisson.energy rho psi] computes it on
    demand. *)
val solve : t -> target_density:float -> unit

(** Add the density-energy gradient (physical units) for every movable
    cell into [gx]/[gy]; descending it follows the field. *)
val add_grad : t -> Netlist.Design.t -> gx:float array -> gy:float array -> unit
