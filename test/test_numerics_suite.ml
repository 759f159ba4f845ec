(* Unit + property tests for the numerics library: the plan DCT engine
   and the Poisson solver. *)

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

let max_abs_diff a b =
  let m = ref 0.0 in
  Array.iteri (fun i v -> m := Float.max !m (Float.abs (v -. b.(i)))) a;
  !m

let random_array rng n = Array.init n (fun _ -> Util.Rng.float_range rng (-5.0) 5.0)

(* ---------------- Plan sizes ---------------- *)

(* Every plan line is a radix-2 FFT length. *)
let test_fft_bad_size () =
  (* The message must name the offending size. *)
  Alcotest.check_raises "not power of two"
    (Invalid_argument "Plan: size must be a power of two, got 3") (fun () ->
      ignore (Numerics.Plan.create ~par:(Helpers.par ()) ~rows:4 ~cols:3))

(* ---------------- DCT (plan engine, 1D as a one-row grid) ---------------- *)

let dct2 x = Helpers.plan_dct x ~rows:1 ~cols:(Array.length x)

let idct2 x = Helpers.plan_dct ~inverse:true x ~rows:1 ~cols:(Array.length x)

let naive_dct2 x =
  let n = Array.length x in
  Array.init n (fun k ->
      let acc = ref 0.0 in
      for i = 0 to n - 1 do
        acc :=
          !acc
          +. x.(i)
             *. cos (Float.pi *. float_of_int k *. ((2.0 *. float_of_int i) +. 1.0)
                     /. (2.0 *. float_of_int n))
      done;
      !acc)

let test_dct_vs_naive () =
  let rng = Util.Rng.create 4 in
  List.iter
    (fun n ->
      let x = random_array rng n in
      Alcotest.(check bool)
        (Printf.sprintf "dct==naive n=%d" n)
        true
        (max_abs_diff (dct2 x) (naive_dct2 x) < 1e-9))
    [ 2; 4; 8; 16; 32 ]

let test_dct_roundtrip () =
  let rng = Util.Rng.create 5 in
  List.iter
    (fun n ->
      let x = random_array rng n in
      let back = idct2 (dct2 x) in
      Alcotest.(check bool) (Printf.sprintf "idct(dct)=id n=%d" n) true (max_abs_diff back x < 1e-9))
    [ 2; 8; 64; 128 ]

let test_dct2d_roundtrip () =
  let rng = Util.Rng.create 6 in
  let rows = 16 and cols = 8 in
  let g = random_array rng (rows * cols) in
  let back = Helpers.plan_dct ~inverse:true (Helpers.plan_dct g ~rows ~cols) ~rows ~cols in
  Alcotest.(check bool) "2d roundtrip" true (max_abs_diff back g < 1e-9)

let q_dct_roundtrip =
  qtest "dct roundtrip (random)" QCheck.(list_of_size (QCheck.Gen.return 16) (float_bound_inclusive 10.0))
    (fun l ->
      let x = Array.of_list l in
      max_abs_diff (idct2 (dct2 x)) x < 1e-8)

(* ---------------- Plan (packed real-even engine) ---------------- *)

(* The packed two-lines-per-FFT DCT-II must match direct summation at
   every supported line length, including the degenerate n=2. *)
let test_plan_pair_vs_naive () =
  let rng = Util.Rng.create 21 in
  List.iter
    (fun n ->
      let plan = Numerics.Plan.create ~par:(Helpers.par ()) ~rows:2 ~cols:n in
      let a = random_array rng n and b = random_array rng n in
      let xa = Array.make n 0.0 and xb = Array.make n 0.0 in
      Numerics.Plan.dct2_pair plan ~a ~b ~xa ~xb;
      Alcotest.(check bool)
        (Printf.sprintf "pair dct A n=%d" n)
        true
        (max_abs_diff xa (naive_dct2 a) < 1e-8);
      Alcotest.(check bool)
        (Printf.sprintf "pair dct B n=%d" n)
        true
        (max_abs_diff xb (naive_dct2 b) < 1e-8))
    [ 2; 4; 8; 64; 256 ]

let q_plan_pair_roundtrip =
  qtest "plan pair pack/unpack roundtrip (random)"
    QCheck.(
      pair
        (list_of_size (QCheck.Gen.return 16) (float_bound_inclusive 10.0))
        (list_of_size (QCheck.Gen.return 16) (float_bound_inclusive 10.0)))
    (fun (la, lb) ->
      let a = Array.of_list la and b = Array.of_list lb in
      let n = Array.length a in
      let plan = Numerics.Plan.create ~par:(Helpers.par ()) ~rows:2 ~cols:n in
      let xa = Array.make n 0.0 and xb = Array.make n 0.0 in
      let ra = Array.make n 0.0 and rb = Array.make n 0.0 in
      Numerics.Plan.dct2_pair plan ~a ~b ~xa ~xb;
      Numerics.Plan.idct2_pair plan ~xa ~xb ~a:ra ~b:rb;
      max_abs_diff ra a < 1e-8 && max_abs_diff rb b < 1e-8)

(* 2D plan transforms vs direct summation, on square and non-square
   (both orientations, odd line counts after pairing). *)
let test_plan_2d_vs_direct () =
  let rng = Util.Rng.create 22 in
  List.iter
    (fun (rows, cols) ->
      let g = random_array rng (rows * cols) in
      let plan = Numerics.Plan.create ~par:(Helpers.par ()) ~rows ~cols in
      let dst = Array.make (rows * cols) 0.0 in
      Numerics.Plan.dct2_2d plan ~src:g ~dst;
      Alcotest.(check bool)
        (Printf.sprintf "plan dct2_2d %dx%d == direct" rows cols)
        true
        (max_abs_diff dst (Oracle.Ref_numerics.dct2_2d_direct g ~rows ~cols) < 1e-8);
      let back = Array.make (rows * cols) 0.0 in
      Numerics.Plan.idct2_2d plan ~src:dst ~dst:back;
      Alcotest.(check bool)
        (Printf.sprintf "plan 2d roundtrip %dx%d" rows cols)
        true (max_abs_diff back g < 1e-9))
    [ (16, 16); (64, 256); (256, 64); (1, 8); (8, 1) ]

(* In-place operation (src == dst) must give the same answer. *)
let test_plan_in_place () =
  let rng = Util.Rng.create 23 in
  let rows = 16 and cols = 32 in
  let g = random_array rng (rows * cols) in
  let plan = Numerics.Plan.create ~par:(Helpers.par ()) ~rows ~cols in
  let out = Array.make (rows * cols) 0.0 in
  Numerics.Plan.dct2_2d plan ~src:g ~dst:out;
  let buf = Array.copy g in
  Numerics.Plan.dct2_2d plan ~src:buf ~dst:buf;
  Alcotest.(check bool) "in-place dct2_2d" true (max_abs_diff buf out = 0.0)

(* ---------------- Poisson ---------------- *)

let zero_mean rng n =
  let a = random_array rng n in
  let m = Util.Stats.mean a in
  Array.map (fun v -> v -. m) a

let discrete_laplacian psi ~rows ~cols r c =
  let at r c =
    let r = max 0 (min (rows - 1) r) and c = max 0 (min (cols - 1) c) in
    psi.((r * cols) + c)
  in
  at (r - 1) c +. at (r + 1) c +. at r (c - 1) +. at r (c + 1) -. (4.0 *. at r c)

let test_poisson_residual () =
  let rng = Util.Rng.create 7 in
  let rows = 32 and cols = 32 in
  let rho = zero_mean rng (rows * cols) in
  let p = Numerics.Poisson.create ~par:(Helpers.par ()) ~rows ~cols in
  let psi = Numerics.Poisson.solve p rho in
  (* Interior: discrete laplacian of psi must equal -rho exactly (the
     solver inverts the discrete operator). *)
  let bad = ref 0.0 in
  for r = 1 to rows - 2 do
    for c = 1 to cols - 2 do
      bad :=
        Float.max !bad
          (Float.abs (discrete_laplacian psi ~rows ~cols r c +. rho.((r * cols) + c)))
    done
  done;
  Alcotest.(check bool) "interior residual" true (!bad < 1e-9)

let test_poisson_uniform_field () =
  (* Uniform charge = zero after DC removal: flat potential, zero field. *)
  let rows = 16 and cols = 16 in
  let rho = Array.make (rows * cols) 1.0 in
  let p = Numerics.Poisson.create ~par:(Helpers.par ()) ~rows ~cols in
  let psi = Numerics.Poisson.solve p rho in
  let ex, ey = Numerics.Poisson.field p psi in
  Alcotest.(check bool) "zero field" true
    (Array.for_all (fun v -> Float.abs v < 1e-9) ex
    && Array.for_all (fun v -> Float.abs v < 1e-9) ey)

let test_poisson_energy_nonneg () =
  let rng = Util.Rng.create 8 in
  for _ = 1 to 10 do
    let rows = 16 and cols = 16 in
    let rho = zero_mean rng (rows * cols) in
    let p = Numerics.Poisson.create ~par:(Helpers.par ()) ~rows ~cols in
    let psi = Numerics.Poisson.solve p rho in
    (* The operator inverse is positive semidefinite on zero-mean charge. *)
    Alcotest.(check bool) "energy >= 0" true (Numerics.Poisson.energy rho psi >= -1e-9)
  done

let test_poisson_field_points_downhill () =
  (* A positive blob at the centre: the field at a point right of centre
     points further right (away from the charge). *)
  let rows = 32 and cols = 32 in
  let rho = Array.make (rows * cols) (-0.01) in
  rho.((16 * cols) + 16) <- 10.0;
  let p = Numerics.Poisson.create ~par:(Helpers.par ()) ~rows ~cols in
  let psi = Numerics.Poisson.solve p rho in
  let ex, _ = Numerics.Poisson.field p psi in
  Alcotest.(check bool) "pushes right of blob" true (ex.((16 * cols) + 20) > 0.0);
  Alcotest.(check bool) "pushes left of blob" true (ex.((16 * cols) + 12) < 0.0)

(* Non-power-of-two grids must surface as a typed Config_error at the
   Poisson boundary (exit code 2 in binaries), not a bare
   Invalid_argument from deep inside the FFT. *)
let test_poisson_bad_grid () =
  match Numerics.Poisson.create ~par:(Helpers.par ()) ~rows:48 ~cols:64 with
  | _ -> Alcotest.fail "expected Config_error for a 48-row grid"
  | exception Util.Errors.Error (Util.Errors.Config_error { what; detail }) ->
      Alcotest.(check string) "what" "poisson.grid" what;
      Alcotest.(check bool) "detail names the size" true (Helpers.contains ~sub:"48x64" detail)

(* The steady-state solve loop must not touch the minor heap: warmed-up
   [solve_into] + [field_into] over caller-owned buffers, one domain and
   no stats hook. [energy] is allowed its boxed-float return (a few
   words). *)
let test_poisson_zero_alloc () =
  let rng = Util.Rng.create 25 in
  let rows = 64 and cols = 64 in
  let p = Numerics.Poisson.create ~par:(Util.Parallel.create 1) ~rows ~cols in
  let rho = random_array rng (rows * cols) in
  let psi = Array.make (rows * cols) 0.0 in
  let ex = Array.make (rows * cols) 0.0 and ey = Array.make (rows * cols) 0.0 in
  let iters = 50 in
  let run () =
    for _ = 1 to 5 do
      Numerics.Poisson.solve_into p ~rho ~psi;
      Numerics.Poisson.field_into p ~psi ~ex ~ey;
      ignore (Numerics.Poisson.energy rho psi)
    done
  in
  run ();
  (* warm: scratch sized, tables built *)
  let w0 = Gc.minor_words () in
  for _ = 1 to iters do
    Numerics.Poisson.solve_into p ~rho ~psi;
    Numerics.Poisson.field_into p ~psi ~ex ~ey;
    ignore (Numerics.Poisson.energy rho psi)
  done;
  let dw = Gc.minor_words () -. w0 in
  let per_solve = dw /. float_of_int iters in
  Alcotest.(check bool)
    (Printf.sprintf "minor words/solve = %.1f (want < 16)" per_solve)
    true (per_solve < 16.0)

let suite =
  [
    ("fft bad size", `Quick, test_fft_bad_size);
    ("dct vs naive", `Quick, test_dct_vs_naive);
    ("dct roundtrip", `Quick, test_dct_roundtrip);
    ("dct 2d roundtrip", `Quick, test_dct2d_roundtrip);
    q_dct_roundtrip;
    ("plan pair vs naive", `Quick, test_plan_pair_vs_naive);
    q_plan_pair_roundtrip;
    ("plan 2d vs direct", `Quick, test_plan_2d_vs_direct);
    ("plan in place", `Quick, test_plan_in_place);
    ("poisson bad grid", `Quick, test_poisson_bad_grid);
    ("poisson zero alloc", `Quick, test_poisson_zero_alloc);
    ("poisson residual", `Quick, test_poisson_residual);
    ("poisson uniform -> zero field", `Quick, test_poisson_uniform_field);
    ("poisson energy nonneg", `Quick, test_poisson_energy_nonneg);
    ("poisson field direction", `Quick, test_poisson_field_points_downhill);
  ]
