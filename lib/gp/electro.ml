(** Electrostatic density force (ePlace): the bin charge grid is treated
    as a 2D charge distribution; solving Poisson's equation gives a
    potential whose negative gradient is the force moving cells from
    over-filled to under-filled regions. Cell charge = cell area. *)

open Netlist

type t = {
  grid : Densitygrid.t;
  poisson : Numerics.Poisson.t;
  obs : Obs.Ctx.t; (* for the in-kernel finiteness probe *)
  (* Solver state, allocated once in [create] and rewritten in place
     every [solve] — the steady-state loop never touches the allocator. *)
  rho : float array;
  psi : float array;
  ex : float array; (* field, grid units *)
  ey : float array;
}

let create ?(obs = Obs.Ctx.null) grid =
  let nbins = grid.Densitygrid.bins_x * grid.Densitygrid.bins_y in
  {
    grid;
    poisson =
      Numerics.Poisson.create ~par:grid.Densitygrid.par ~rows:grid.Densitygrid.bins_y
        ~cols:grid.Densitygrid.bins_x;
    obs;
    rho = Array.make nbins 0.0;
    psi = Array.make nbins 0.0;
    ex = Array.make nbins 0.0;
    ey = Array.make nbins 0.0;
  }

(** Re-solve the field from the current bin densities into the
    preallocated [rho]/[psi]/[ex]/[ey] buffers. Call after
    [Densitygrid.update]. *)
let solve t ~target_density =
  Densitygrid.charge_into t.grid ~target_density ~rho:t.rho;
  Numerics.Poisson.solve_into ~obs:t.obs t.poisson ~rho:t.rho ~psi:t.psi;
  Numerics.Poisson.field_into t.poisson ~psi:t.psi ~ex:t.ex ~ey:t.ey

(** Density-force gradient: for each movable cell, the gradient of the
    electrostatic energy w.r.t. its position is -q * E(pos); we *add*
    +q*(-E) into [gx]/[gy] so that descending the total objective moves
    cells along the field. Field is converted from grid to physical units. *)
let add_grad t (d : Design.t) ~gx ~gy =
  let g = t.grid in
  let inv_w = 1.0 /. g.Densitygrid.bin_w and inv_h = 1.0 /. g.Densitygrid.bin_h in
  let bins_x = g.Densitygrid.bins_x and bins_y = g.Densitygrid.bins_y in
  let die_xl = g.Densitygrid.die.xl and die_yl = g.Densitygrid.die.yl in
  let ex = t.ex and ey = t.ey in
  (* Pure gather: each cell reads the field and writes only its own
     gradient slot, so the loop is safely data-parallel. The bilinear
     interpolation (grid values at bin centres, indices clamped to the
     die) is inlined: a helper returning a float would box that return
     per cell per iteration on the hottest path. *)
  Util.Parallel.for_chunks g.Densitygrid.par ~grain:256 ~name:"electro.grad"
    ~n:(Design.num_cells d) (fun ~chunk:_ ~lo ~hi ->
      for i = lo to hi - 1 do
        if Design.is_movable d i then begin
          let q = d.w.{i} *. d.h.{i} in
          let fx = ((d.x.{i} -. die_xl) *. inv_w) -. 0.5 in
          let fy = ((d.y.{i} -. die_yl) *. inv_h) -. 0.5 in
          let bx = int_of_float (floor fx) and by = int_of_float (floor fy) in
          let tx = fx -. float_of_int bx and ty = fy -. float_of_int by in
          let bx0 = if bx < 0 then 0 else if bx > bins_x - 1 then bins_x - 1 else bx in
          let bx1 = if bx + 1 < 0 then 0 else if bx + 1 > bins_x - 1 then bins_x - 1 else bx + 1 in
          let by0 = if by < 0 then 0 else if by > bins_y - 1 then bins_y - 1 else by in
          let by1 = if by + 1 < 0 then 0 else if by + 1 > bins_y - 1 then bins_y - 1 else by + 1 in
          let r0 = by0 * bins_x and r1 = by1 * bins_x in
          let vx =
            (((ex.(r0 + bx0) *. (1.0 -. tx)) +. (ex.(r0 + bx1) *. tx)) *. (1.0 -. ty))
            +. (((ex.(r1 + bx0) *. (1.0 -. tx)) +. (ex.(r1 + bx1) *. tx)) *. ty)
          in
          let vy =
            (((ey.(r0 + bx0) *. (1.0 -. tx)) +. (ey.(r0 + bx1) *. tx)) *. (1.0 -. ty))
            +. (((ey.(r1 + bx0) *. (1.0 -. tx)) +. (ey.(r1 + bx1) *. tx)) *. ty)
          in
          gx.(i) <- gx.(i) -. (q *. vx *. inv_w);
          gy.(i) <- gy.(i) -. (q *. vy *. inv_h)
        end
      done)
