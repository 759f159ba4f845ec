(** Bin-grid density accumulation and the overflow metric. Cells smaller
    than a bin are inflated to bin size with density scaled to preserve
    area (the ePlace smoothing rule). *)

type t = {
  bins_x : int;
  bins_y : int;
  bin_w : float;
  bin_h : float;
  inv_bin_w : float; (* cached 1/bin_w for bin-index math *)
  inv_bin_h : float;
  die : Geom.Rect.t;
  density : float array; (* movable area per bin, row-major [by*bins_x+bx] *)
  fixed : float array; (* fixed (blockage/pad) area per bin, set once *)
  eff_w : float array; (* per-cell inflated extents / density scale, *)
  eff_h : float array; (* precomputed once (cell sizes are static) *)
  eff_scale : float array;
  par : Util.Parallel.t; (* the grid's kernels and [Electro]'s run on it *)
  xover : float array array; (* per-chunk x-overlap rows, length [bins_x] *)
}

(** Precomputes the fixed-density layer from non-movable cells. *)
val create : par:Util.Parallel.t -> Netlist.Design.t -> bins_x:int -> bins_y:int -> t

val bin_area : t -> float

(** Re-accumulate movable density from the current placement. *)
val update : t -> Netlist.Design.t -> unit

(** Fraction of movable area above per-bin capacity
    (target_density * bin_area - fixed) — the convergence metric. *)
val overflow : t -> target_density:float -> movable_area:float -> float

(** Charge grid for the Poisson solve into a caller-owned buffer:
    occupied density minus target. Allocation-free. *)
val charge_into : t -> target_density:float -> rho:float array -> unit

(** Allocating wrapper over {!charge_into}. *)
val charge : t -> target_density:float -> float array
