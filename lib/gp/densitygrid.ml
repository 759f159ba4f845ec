(** Bin-grid density accumulation and the overflow metric.

    Cells smaller than a bin are inflated to bin size with their density
    scaled down to preserve area (the ePlace local-smoothing rule), which
    keeps the electrostatic field well-behaved for standard cells. *)

open Netlist

type t = {
  bins_x : int;
  bins_y : int;
  bin_w : float;
  bin_h : float;
  inv_bin_w : float; (* 1/bin_w — bin-index math multiplies instead of divides *)
  inv_bin_h : float;
  die : Geom.Rect.t;
  density : float array; (* movable area per bin, row-major [by * bins_x + bx] *)
  fixed : float array; (* fixed (blockage) area per bin, computed once *)
  (* Per-cell inflated extents and density scale (the ePlace smoothing
     rule), precomputed once: cell sizes never change during placement,
     so the branches and divisions drop out of the per-iteration path. *)
  eff_w : float array;
  eff_h : float array;
  eff_scale : float array;
  par : Util.Parallel.t;
  xover : float array array;
      (* per-chunk x-overlap rows (length [bins_x]) for the multi-bin
         deposit, one per domain of [par] *)
}

let create ~par (d : Design.t) ~bins_x ~bins_y =
  let die = d.die in
  let bin_w = Geom.Rect.width die /. float_of_int bins_x in
  let bin_h = Geom.Rect.height die /. float_of_int bins_y in
  let ncells = Design.num_cells d in
  let eff_w = Array.make ncells 0.0 in
  let eff_h = Array.make ncells 0.0 in
  let eff_scale = Array.make ncells 0.0 in
  for i = 0 to ncells - 1 do
    let cw = d.w.{i} and ch = d.h.{i} in
    eff_w.(i) <- (if cw < bin_w then bin_w else cw);
    eff_h.(i) <- (if ch < bin_h then bin_h else ch);
    let sx = if cw < bin_w then cw /. bin_w else 1.0 in
    let sy = if ch < bin_h then ch /. bin_h else 1.0 in
    eff_scale.(i) <- sx *. sy
  done;
  let t =
    {
      bins_x;
      bins_y;
      bin_w;
      bin_h;
      inv_bin_w = 1.0 /. bin_w;
      inv_bin_h = 1.0 /. bin_h;
      die;
      density = Array.make (bins_x * bins_y) 0.0;
      fixed = Array.make (bins_x * bins_y) 0.0;
      eff_w;
      eff_h;
      eff_scale;
      par;
      xover = Array.init (Util.Parallel.domains par) (fun _ -> Array.make bins_x 0.0);
    }
  in
  (* Fixed density from blockages and fixed logic (pads are on the
     boundary and tiny; they are included for completeness). *)
  for i = 0 to Design.num_cells d - 1 do
    if not (Design.is_movable d i) then begin
      let rect = Design.cell_rect d i in
      let bxl = int_of_float (floor ((rect.xl -. die.xl) /. bin_w)) in
      let bxh = int_of_float (ceil ((rect.xh -. die.xl) /. bin_w)) - 1 in
      let byl = int_of_float (floor ((rect.yl -. die.yl) /. bin_h)) in
      let byh = int_of_float (ceil ((rect.yh -. die.yl) /. bin_h)) - 1 in
      for by = max 0 byl to min (bins_y - 1) byh do
        for bx = max 0 bxl to min (bins_x - 1) bxh do
          let bin =
            Geom.Rect.make
              ~xl:(die.xl +. (float_of_int bx *. bin_w))
              ~yl:(die.yl +. (float_of_int by *. bin_h))
              ~xh:(die.xl +. (float_of_int (bx + 1) *. bin_w))
              ~yh:(die.yl +. (float_of_int (by + 1) *. bin_h))
          in
          t.fixed.((by * bins_x) + bx) <-
            t.fixed.((by * bins_x) + bx) +. Geom.Rect.overlap_area rect bin
        done
      done
    end
  done;
  t

let bin_area t = t.bin_w *. t.bin_h

(* [Float.min]/[Float.max] by compare-and-select, with the same result
   bits: equal operands can only differ as +0/-0, where min prefers -0
   (-(-x - y)) and max prefers +0 (x + y); an unordered pair returns its
   NaN. They skip the [sign_bit] C calls the library versions make. Kept
   local (as in [Rctree.Steiner] and [Globalplace]): the dev profile
   compiles with [-opaque], so a shared helper would not inline. *)
let[@inline] fmin x y =
  if x < y then x
  else if y < x then y
  else if x = y then if x = 0.0 then -.(-.x -. y) else y
  else if x <> x then x
  else y

let[@inline] fmax x y =
  if x > y then x
  else if y > x then y
  else if x = y then if x = 0.0 then x +. y else x
  else if x <> x then x
  else y

(* Deposit the part of one movable cell's (inflated) area that falls in
   bin rows [rlo, rhi) into [acc]. The inflation (cells smaller than a
   bin stretched to bin size, density scaled to preserve area) is
   computed inline with float locals — a tuple-returning helper would
   allocate per cell per iteration. [xo] is the chunk's x-overlap row
   (length [bins_x]). *)
let[@inline] deposit t (d : Design.t) (acc : float array) (xo : float array) ~rlo ~rhi i =
  let die = t.die in
  (* [i] is loop-bounded by the caller (< num_cells), so the coordinate
     reads skip bounds checks; the inflated extents/scale come from the
     precomputed per-cell arrays and bin-index math multiplies by the
     cached inverses (branches plus six divides per cell otherwise). *)
  let cx = Bigarray.Array1.unsafe_get d.x i and cy = Bigarray.Array1.unsafe_get d.y i in
  let ew = Array.unsafe_get t.eff_w i and eh = Array.unsafe_get t.eff_h i in
  let scale = Array.unsafe_get t.eff_scale i in
  let xl = cx -. (0.5 *. ew) and xh = cx +. (0.5 *. ew) in
  let yl = cy -. (0.5 *. eh) and yh = cy +. (0.5 *. eh) in
  if ew <= t.bin_w && eh <= t.bin_h then begin
    (* Fast path: a cell inflated to (at most) bin size spans at most two
       bins per dimension, so both overlap pairs fall out of one floor per
       dimension — no rasterisation loop, no NaN-aware min/max calls. This
       is the overwhelmingly common standard-cell case. *)
    let bx0 = int_of_float (floor ((xl -. die.xl) *. t.inv_bin_w)) in
    let by0 = int_of_float (floor ((yl -. die.yl) *. t.inv_bin_h)) in
    let bxr = die.xl +. (float_of_int (bx0 + 1) *. t.bin_w) in
    let byr = die.yl +. (float_of_int (by0 + 1) *. t.bin_h) in
    let ox0 = bxr -. xl and ox1 = xh -. bxr in
    let oy0 = byr -. yl and oy1 = yh -. byr in
    let bx1 = bx0 + 1 and by1 = by0 + 1 in
    let x0_ok = bx0 >= 0 && ox0 > 0.0 in
    let x1_ok = bx1 <= t.bins_x - 1 && ox1 > 0.0 in
    if by0 >= rlo && by0 < rhi && oy0 > 0.0 then begin
      let row = by0 * t.bins_x in
      if x0_ok then begin
        let b = row + bx0 in
        Array.unsafe_set acc b (Array.unsafe_get acc b +. (ox0 *. oy0 *. scale))
      end;
      if x1_ok then begin
        let b = row + bx1 in
        Array.unsafe_set acc b (Array.unsafe_get acc b +. (ox1 *. oy0 *. scale))
      end
    end;
    if by1 >= rlo && by1 < rhi && oy1 > 0.0 then begin
      let row = by1 * t.bins_x in
      if x0_ok then begin
        let b = row + bx0 in
        Array.unsafe_set acc b (Array.unsafe_get acc b +. (ox0 *. oy1 *. scale))
      end;
      if x1_ok then begin
        let b = row + bx1 in
        Array.unsafe_set acc b (Array.unsafe_get acc b +. (ox1 *. oy1 *. scale))
      end
    end
  end
  else begin
    (* [Int.max]/[Int.min]: the polymorphic [max]/[min] would call the
       generic compare four times per cell. *)
    let bxl = Int.max 0 (int_of_float (floor ((xl -. die.xl) *. t.inv_bin_w))) in
    let bxh = Int.min (t.bins_x - 1) (int_of_float (floor ((xh -. die.xl) *. t.inv_bin_w))) in
    let byl = Int.max rlo (int_of_float (floor ((yl -. die.yl) *. t.inv_bin_h))) in
    let byh = Int.min (rhi - 1) (int_of_float (floor ((yh -. die.yl) *. t.inv_bin_h))) in
    (* A column's x-overlap is the same in every row: compute each once
       per cell. [bxl, bxh] lies inside [0, bins_x) by the clamps above. *)
    if byl <= byh then
      for bx = bxl to bxh do
        let b_xl = die.xl +. (float_of_int bx *. t.bin_w) in
        Array.unsafe_set xo bx (fmin xh (b_xl +. t.bin_w) -. fmax xl b_xl)
      done;
    for by = byl to byh do
      let b_yl = die.yl +. (float_of_int by *. t.bin_h) in
      let oy = fmin yh (b_yl +. t.bin_h) -. fmax yl b_yl in
      if oy > 0.0 then
        for bx = bxl to bxh do
          let ox = Array.unsafe_get xo bx in
          if ox > 0.0 then
            let b = (by * t.bins_x) + bx in
            Array.unsafe_set acc b (Array.unsafe_get acc b +. (ox *. oy *. scale))
        done
    done
  end

(** Accumulate movable-cell density from the current placement.
    Parallel over bin rows: each chunk walks every movable cell in index
    order and deposits only into its own rows, so each bin sums its cells
    in index order at every domain count. *)
let update t (d : Design.t) =
  Array.fill t.density 0 (Array.length t.density) 0.0;
  let ncells = Design.num_cells d in
  Util.Parallel.for_chunks t.par ~grain:8 ~name:"density.bins" ~n:t.bins_y (fun ~chunk ~lo ~hi ->
      let xo = t.xover.(chunk) in
      for i = 0 to ncells - 1 do
        if Design.is_movable d i then deposit t d t.density xo ~rlo:lo ~rhi:hi i
      done)

(** Density overflow: fraction of movable area sitting above the per-bin
    capacity [target_density * bin_area - fixed]. The standard global
    placement convergence metric ("overflow" in Fig. 5). A sequential
    left fold over the bins. *)
let overflow t ~target_density ~movable_area =
  if movable_area <= 0.0 then 0.0
  else begin
    let ba = bin_area t in
    let over = ref 0.0 in
    for i = 0 to Array.length t.density - 1 do
      let cap = target_density *. ba -. t.fixed.(i) in
      let cap = if cap > 0.0 then cap else 0.0 in
      let ov = t.density.(i) -. cap in
      if ov > 0.0 then over := !over +. ov
    done;
    !over /. movable_area
  end

(** Charge density for the Poisson solve into a caller-owned buffer:
    total occupied area density minus the target (so the field pushes
    from dense to sparse). Allocation-free. *)
let charge_into t ~target_density ~rho =
  assert (Array.length rho = Array.length t.density);
  let ba = bin_area t in
  for i = 0 to Array.length t.density - 1 do
    rho.(i) <- ((t.density.(i) +. t.fixed.(i)) /. ba) -. target_density
  done

(** Allocating wrapper over {!charge_into}. *)
let charge t ~target_density =
  let rho = Array.make (Array.length t.density) 0.0 in
  charge_into t ~target_density ~rho;
  rho
