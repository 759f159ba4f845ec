(** Spectral Poisson solver on a regular grid with Neumann boundaries.

    Solves  laplacian(psi) = -rho  in the cosine basis, as in ePlace:
    the density grid is transformed with a 2D DCT, each mode is scaled by
    1 / (wu^2 + wv^2), and the inverse transform yields the potential.
    The DC mode is dropped, which is equivalent to neutralising the total
    charge (ePlace's implicit assumption at the density target).

    The transform work runs on a per-solver [Plan]: real-even packed
    transforms with the mode scale fused into the column pass, over
    plan-owned scratch — [solve_into]/[field_into] perform zero
    minor-heap allocation in steady state on one domain without a stats
    hook. *)

type t = {
  rows : int;
  cols : int;
  (* Precomputed 1 / (wu^2 + wv^2), DC term 0. *)
  inv_freq_sq : float array;
  plan : Plan.t;
  par : Util.Parallel.t;
  (* Operands of the field pass in flight, and its chunk body, built
     once in [create] so a steady-state pass allocates nothing. *)
  mutable psi : float array;
  mutable ex : float array;
  mutable ey : float array;
  field_body : chunk:int -> lo:int -> hi:int -> unit;
}

(* Field rows [lo, hi): central differences. *)
let field_seg rows cols (psi : float array) (ex : float array) (ey : float array) lo hi =
  for r = lo to hi - 1 do
    let base = r * cols in
    let up = (if r = 0 then 0 else r - 1) * cols in
    let dn = (if r = rows - 1 then rows - 1 else r + 1) * cols in
    let dy_scale = if r = 0 || r = rows - 1 then 1.0 else 0.5 in
    for c = 0 to cols - 1 do
      let dpsi_dx =
        if c = 0 then psi.(base + 1) -. psi.(base)
        else if c = cols - 1 then psi.(base + c) -. psi.(base + c - 1)
        else (psi.(base + c + 1) -. psi.(base + c - 1)) /. 2.0
      in
      let dpsi_dy = (psi.(dn + c) -. psi.(up + c)) *. dy_scale in
      ex.(base + c) <- -.dpsi_dx;
      ey.(base + c) <- -.dpsi_dy
    done
  done

let create ~par ~rows ~cols =
  if not (Plan.is_power_of_two rows && Plan.is_power_of_two cols) then
    Util.Errors.config_error ~what:"poisson.grid"
      (Printf.sprintf "grid dimensions must be powers of two, got %dx%d" rows cols);
  let inv = Array.make (rows * cols) 0.0 in
  (* Eigenvalues of the discrete 5-point Laplacian with Neumann BC for
     cosine modes: -(2 - 2 cos wu) - (2 - 2 cos wv). Using the discrete
     spectrum (rather than wu^2 + wv^2) makes [solve] the exact inverse of
     the finite-difference Laplacian, which the tests verify. *)
  for u = 0 to rows - 1 do
    let wu = Float.pi *. float_of_int u /. float_of_int rows in
    for v = 0 to cols - 1 do
      let wv = Float.pi *. float_of_int v /. float_of_int cols in
      let s = (2.0 -. (2.0 *. cos wu)) +. (2.0 -. (2.0 *. cos wv)) in
      inv.((u * cols) + v) <- (if s = 0.0 then 0.0 else 1.0 /. s)
    done
  done;
  let plan = Plan.create ~par ~rows ~cols in
  let rec t =
    {
      rows;
      cols;
      inv_freq_sq = inv;
      plan;
      par;
      psi = [||];
      ex = [||];
      ey = [||];
      field_body = (fun ~chunk:_ ~lo ~hi -> field_seg rows cols t.psi t.ex t.ey lo hi);
    }
  in
  t

(* In-kernel finiteness probe (sampled, so O(1)-ish per solve): a NaN
   entering through the density field or produced inside the DCT pair
   should be attributed to *this* kernel, not discovered iterations later
   by the gradient-level guard in Globalplace. Observation-only — the
   guard there still owns recovery. *)
let probe obs ~what a =
  if Obs.Ctx.enabled obs && not (Util.Guard.sampled_finite a) then begin
    Obs.Ctx.count obs ("guard.numerics." ^ what ^ "_nonfinite");
    Obs.Log.warn "[poisson] non-finite %s detected in spectral solve" what
  end

(** Potential psi from charge density rho (row-major [rows*cols]) into a
    caller-owned buffer. [rho == psi] is allowed. The plan fuses forward
    transform, mode scale and inverse transform. *)
let solve_into ?(obs = Obs.Ctx.null) t ~rho ~psi =
  assert (Array.length rho = t.rows * t.cols);
  assert (Array.length psi = t.rows * t.cols);
  probe obs ~what:"density" rho;
  Plan.apply_filter t.plan ~scale:t.inv_freq_sq ~src:rho ~dst:psi;
  probe obs ~what:"psi" psi

(** Allocating wrapper over {!solve_into}. *)
let solve ?obs t rho =
  let psi = Array.make (t.rows * t.cols) 0.0 in
  solve_into ?obs t ~rho ~psi;
  psi

(** Electric field (ex, ey) = -grad(psi) into caller-owned buffers,
    central differences in grid units, one-sided at the boundary. [ex]
    varies along columns (x), [ey] along rows (y). *)
let field_into t ~psi ~ex ~ey =
  let rows = t.rows and cols = t.cols in
  assert (Array.length psi = rows * cols);
  assert (Array.length ex = rows * cols && Array.length ey = rows * cols);
  t.psi <- psi;
  t.ex <- ex;
  t.ey <- ey;
  Util.Parallel.for_chunks t.par ~grain:16 ~name:"poisson.field" ~n:rows t.field_body

(** Allocating wrapper over {!field_into}. *)
let field t psi =
  let ex = Array.make (t.rows * t.cols) 0.0 and ey = Array.make (t.rows * t.cols) 0.0 in
  field_into t ~psi ~ex ~ey;
  (ex, ey)

(** System energy 0.5 * sum(rho * psi); the ePlace density penalty. A
    sequential left fold, so the result does not depend on the domain
    count. The accumulator is a local [ref] that never escapes, which the
    native compiler keeps in an unboxed register. *)
let energy rho psi =
  let acc = ref 0.0 in
  for i = 0 to Array.length rho - 1 do
    acc := !acc +. (rho.(i) *. psi.(i))
  done;
  0.5 *. !acc
