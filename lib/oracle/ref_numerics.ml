(** Direct-summation references for the spectral kernels (see the
    interface). Everything here is a plain double loop over the
    definition — no FFT, no recursion, no shared scratch. *)

let dct2_direct x =
  let n = Array.length x in
  Array.init n (fun k ->
      let acc = ref 0.0 in
      for i = 0 to n - 1 do
        acc :=
          !acc
          +. (x.(i)
              *. cos (Float.pi *. float_of_int k *. ((2.0 *. float_of_int i) +. 1.0)
                      /. (2.0 *. float_of_int n)))
      done;
      !acc)

let idct2_direct coeffs =
  let n = Array.length coeffs in
  Array.init n (fun i ->
      let acc = ref coeffs.(0) in
      for k = 1 to n - 1 do
        acc :=
          !acc
          +. (2.0 *. coeffs.(k)
              *. cos (Float.pi *. float_of_int k *. ((2.0 *. float_of_int i) +. 1.0)
                      /. (2.0 *. float_of_int n)))
      done;
      !acc /. float_of_int n)

let map_rows f grid ~rows ~cols =
  let out = Array.make (rows * cols) 0.0 in
  for r = 0 to rows - 1 do
    let t = f (Array.sub grid (r * cols) cols) in
    Array.blit t 0 out (r * cols) cols
  done;
  out

let map_cols f grid ~rows ~cols =
  let out = Array.make (rows * cols) 0.0 in
  for c = 0 to cols - 1 do
    let t = f (Array.init rows (fun r -> grid.((r * cols) + c))) in
    for r = 0 to rows - 1 do
      out.((r * cols) + c) <- t.(r)
    done
  done;
  out

let dct2_2d_direct grid ~rows ~cols =
  map_cols dct2_direct (map_rows dct2_direct grid ~rows ~cols) ~rows ~cols

let idct2_2d_direct grid ~rows ~cols =
  map_rows idct2_direct (map_cols idct2_direct grid ~rows ~cols) ~rows ~cols

let laplacian_neumann psi ~rows ~cols =
  let at r c = psi.((r * cols) + c) in
  Array.init (rows * cols) (fun i ->
      let r = i / cols and c = i mod cols in
      let acc = ref 0.0 in
      if r > 0 then acc := !acc +. (at (r - 1) c -. at r c);
      if r < rows - 1 then acc := !acc +. (at (r + 1) c -. at r c);
      if c > 0 then acc := !acc +. (at r (c - 1) -. at r c);
      if c < cols - 1 then acc := !acc +. (at r (c + 1) -. at r c);
      !acc)

let poisson_solve_direct rho ~rows ~cols =
  let coeffs = dct2_2d_direct rho ~rows ~cols in
  for u = 0 to rows - 1 do
    let wu = Float.pi *. float_of_int u /. float_of_int rows in
    for v = 0 to cols - 1 do
      let wv = Float.pi *. float_of_int v /. float_of_int cols in
      let s = (2.0 -. (2.0 *. cos wu)) +. (2.0 -. (2.0 *. cos wv)) in
      let i = (u * cols) + v in
      coeffs.(i) <- (if s = 0.0 then 0.0 else coeffs.(i) /. s)
    done
  done;
  idct2_2d_direct coeffs ~rows ~cols

let field_direct psi ~rows ~cols =
  let at r c = psi.((r * cols) + c) in
  let ex = Array.make (rows * cols) 0.0 and ey = Array.make (rows * cols) 0.0 in
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      let dpsi_dx =
        if c = 0 then at r 1 -. at r 0
        else if c = cols - 1 then at r (cols - 1) -. at r (cols - 2)
        else (at r (c + 1) -. at r (c - 1)) /. 2.0
      in
      let dpsi_dy =
        if r = 0 then at 1 c -. at 0 c
        else if r = rows - 1 then at (rows - 1) c -. at (rows - 2) c
        else (at (r + 1) c -. at (r - 1) c) /. 2.0
      in
      ex.((r * cols) + c) <- -.dpsi_dx;
      ey.((r * cols) + c) <- -.dpsi_dy
    done
  done;
  (ex, ey)

let energy_direct rho psi =
  let acc = ref 0.0 in
  Array.iteri (fun i v -> acc := !acc +. (v *. psi.(i))) rho;
  0.5 *. !acc

let check_poisson_residual ?(atol = 1e-8) ~rho ~psi ~rows ~cols () =
  let n = rows * cols in
  let mean = Array.fold_left ( +. ) 0.0 rho /. float_of_int n in
  let scale =
    Array.fold_left (fun acc v -> Float.max acc (Float.abs v)) 1.0 rho
  in
  let lap = laplacian_neumann psi ~rows ~cols in
  let bad = ref None in
  Array.iteri
    (fun i l ->
      let want = -.(rho.(i) -. mean) in
      if !bad = None && Float.abs (l -. want) > atol *. scale then bad := Some (i, l, want))
    lap;
  match !bad with
  | None -> Ok ()
  | Some (i, got, want) ->
      Error
        (Printf.sprintf "poisson residual at %d: laplacian %.12g, want %.12g (|rho|max %.3g)" i
           got want scale)

(* ---- differential gates for the packed real-even plan engine ----

   Each gate runs the production [Numerics.Plan] path on a fresh plan
   and compares against direct summation. Tolerances default looser than
   the seed-path gates: both the packed FFT and the O(N^2) reference
   accumulate rounding of order N*eps on coefficients with heavy
   cancellation, so an absolute floor is required. *)

let check_dct2_2d ?(rtol = 1e-9) ?(atol = 1e-7) grid ~rows ~cols =
  let plan = Numerics.Plan.create ~par:(Util.Parallel.default ()) ~rows ~cols in
  let got = Array.make (rows * cols) 0.0 in
  Numerics.Plan.dct2_2d plan ~src:grid ~dst:got;
  Compare.check_array ~rtol ~atol
    ~what:(Printf.sprintf "plan.dct2_2d %dx%d" rows cols)
    got
    (dct2_2d_direct grid ~rows ~cols)

let check_idct2_2d ?(rtol = 1e-9) ?(atol = 1e-7) grid ~rows ~cols =
  let plan = Numerics.Plan.create ~par:(Util.Parallel.default ()) ~rows ~cols in
  let got = Array.make (rows * cols) 0.0 in
  Numerics.Plan.idct2_2d plan ~src:grid ~dst:got;
  Compare.check_array ~rtol ~atol
    ~what:(Printf.sprintf "plan.idct2_2d %dx%d" rows cols)
    got
    (idct2_2d_direct grid ~rows ~cols)

let check_poisson_solve ?(rtol = 1e-9) ?(atol = 1e-7) rho ~rows ~cols =
  let p = Numerics.Poisson.create ~par:(Util.Parallel.default ()) ~rows ~cols in
  let psi = Numerics.Poisson.solve p rho in
  Compare.all
    [
      Compare.check_array ~rtol ~atol
        ~what:(Printf.sprintf "plan.poisson_solve %dx%d" rows cols)
        psi
        (poisson_solve_direct rho ~rows ~cols);
      check_poisson_residual ~rho ~psi ~rows ~cols ();
    ]
