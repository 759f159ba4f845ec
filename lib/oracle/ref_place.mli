(** Brute-force references for the placement objectives: pairwise/direct
    HPWL, an independent weighted-average wirelength value,
    finite-difference gradient checks (WA and pin-pair losses), an O(cells
    * bins) density accumulation, and an independent bilinear field
    sampler for the electrostatic gradient gather. *)

(** Exact HPWL of one point set (max-min in each dimension). *)
val points_hpwl : xs:float array -> ys:float array -> float

(** Brute-force pairwise HPWL of a point set: half-perimeter via max over
    all O(n^2) coordinate pairs — the obviously-correct form. *)
val points_hpwl_pairwise : xs:float array -> ys:float array -> float

(** Net-weighted design HPWL, sequential direct summation. *)
val hpwl_direct : Netlist.Design.t -> float

(** Weighted-average smooth extent of one coordinate set (WA_max -
    WA_min), written directly from the definition. *)
val wa_extent : gamma:float -> float array -> float

(** Independent WA wirelength value of the whole design (net weights
    applied); the reference for [Gp.Wirelength.wa_wirelength_grad]'s
    return value. *)
val wa_value : Netlist.Design.t -> gamma:float -> float

(** Central finite-difference check of a supplied gradient [gx]/[gy]
    against [value] for the given cells (defaults as {!wa_fd_check});
    mutation checks feed it corrupted gradients. *)
val fd_check_cells :
  ?h:float -> ?rtol:float -> Netlist.Design.t -> cells:int list -> value:(unit -> float) ->
  gx:float array -> gy:float array -> what:string -> (unit, string) result

(** Central finite-difference check of the analytic WA gradient for the
    given cells: perturbs each cell centre by [h] in x and y and compares
    against {!wa_value} differences. [rtol] is loose (default 1e-4) —
    finite differences truncate. *)
val wa_fd_check :
  ?h:float -> ?rtol:float -> Netlist.Design.t -> gamma:float -> cells:int list -> (unit, string) result

(** Central finite-difference check of [Tdp.Pin_attract.add_grad] against
    [Tdp.Pin_attract.loss_value] for the given cells. *)
val pin_attract_fd_check :
  ?h:float -> ?rtol:float -> Netlist.Design.t -> Tdp.Pin_attract.t -> cells:int list -> (unit, string) result

(** O(cells * bins) density accumulation: every movable cell's inflated
    rectangle is overlapped against every bin. The oracle for
    [Gp.Densitygrid.update]. *)
val density_direct : Netlist.Design.t -> Gp.Densitygrid.t -> float array

(** Independent bilinear interpolation of a bin-centred grid value at a
    physical position (clamped at the boundary). *)
val bilinear :
  field:float array ->
  bins_x:int -> bins_y:int -> die:Geom.Rect.t -> bin_w:float -> bin_h:float ->
  float -> float -> float

(** Expected electrostatic gradient increments (per cell) recomputed with
    {!bilinear} from the solver's field — the oracle for
    [Gp.Electro.add_grad]. Returns (gx, gy) of the same length as the
    cell arrays, zero for fixed cells. *)
val electro_grad_expected : Gp.Electro.t -> Netlist.Design.t -> float array * float array

(** The list-based greedy detailed placer [Gp.Detailed] replaced: the
    same candidates, order and accept/reject floats, scored by rebuilding
    each candidate's net set and recomputing every net's HPWL. The
    reference that [Gp.Detailed] must match bit for bit. *)
module Detailed : sig
  val pass : Netlist.Design.t -> window:int -> int

  val reorder_rows : ?k:int -> Netlist.Design.t -> int

  val run : ?passes:int -> ?window:int -> Netlist.Design.t -> int
end
