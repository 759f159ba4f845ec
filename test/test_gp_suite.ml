(* Tests for the gp library: WA wirelength, density grid, electrostatic
   force, Nesterov, the global placement loop, legalizer and detailed
   placement. *)

open Netlist

let check_float = Alcotest.(check (float 1e-6))

(* ---------------- Wirelength ---------------- *)

let spread_design () =
  let d = Lazy.force Helpers.small_generated in
  let rng = Util.Rng.create 17 in
  for id = 0 to Design.num_cells d - 1 do
    if Design.is_movable d id then begin
      d.x.{id} <- 2.0 +. Util.Rng.float rng (Geom.Rect.width d.die -. 4.0);
      d.y.{id} <- 2.0 +. Util.Rng.float rng (Geom.Rect.height d.die -. 4.0)
    end
  done;
  d

let test_wa_approaches_hpwl () =
  let d = spread_design () in
  let n = Design.num_cells d in
  let hpwl = Design.total_hpwl d in
  let wa gamma =
    let gx = Array.make n 0.0 and gy = Array.make n 0.0 in
    Gp.Wirelength.wa_wirelength_grad ~par:(Helpers.par ()) d ~gamma ~gx ~gy
  in
  let w_tight = wa 0.01 and w_loose = wa 10.0 in
  Alcotest.(check bool) "gamma->0 converges to hpwl" true
    (Float.abs (w_tight -. hpwl) /. hpwl < 0.01);
  Alcotest.(check bool) "wa underestimates" true (w_loose <= hpwl +. 1e-6);
  Alcotest.(check bool) "tight closer than loose" true
    (Float.abs (w_tight -. hpwl) <= Float.abs (w_loose -. hpwl))

let test_wa_gradient_finite_diff () =
  let d = spread_design () in
  let n = Design.num_cells d in
  let gamma = 2.0 in
  let gx = Array.make n 0.0 and gy = Array.make n 0.0 in
  let _ = Gp.Wirelength.wa_wirelength_grad ~par:(Helpers.par ()) d ~gamma ~gx ~gy in
  let value () =
    let tx = Array.make n 0.0 and ty = Array.make n 0.0 in
    Gp.Wirelength.wa_wirelength_grad ~par:(Helpers.par ()) d ~gamma ~gx:tx ~gy:ty
  in
  let h = 1e-4 in
  let rng = Util.Rng.create 23 in
  for _ = 1 to 10 do
    let id = Util.Rng.int rng n in
    if Design.is_movable d id then begin
      let x0 = d.x.{id} in
      d.x.{id} <- x0 +. h;
      let fp = value () in
      d.x.{id} <- x0 -. h;
      let fm = value () in
      d.x.{id} <- x0;
      let num = (fp -. fm) /. (2.0 *. h) in
      Alcotest.(check bool)
        (Printf.sprintf "grad x cell %d (%g vs %g)" id num gx.(id))
        true
        (Float.abs (num -. gx.(id)) < 1e-3 *. (1.0 +. Float.abs num))
    end
  done

let test_weighted_wl_scales () =
  let d = Helpers.chain_design () in
  let base = Gp.Wirelength.weighted_hpwl d in
  d.net_weight.{0} <- 3.0;
  let weighted = Gp.Wirelength.weighted_hpwl d in
  check_float "weight multiplies" (base +. (2.0 *. Design.net_hpwl d 0)) weighted;
  Design.reset_net_weights d

let test_wa_respects_net_weights () =
  let d = Helpers.chain_design () in
  let n = Design.num_cells d in
  let grad_norm () =
    let gx = Array.make n 0.0 and gy = Array.make n 0.0 in
    ignore (Gp.Wirelength.wa_wirelength_grad ~par:(Helpers.par ()) d ~gamma:1.0 ~gx ~gy);
    Array.fold_left (fun a v -> a +. Float.abs v) 0.0 gx
  in
  let g1 = grad_norm () in
  for nid = 0 to Design.num_nets d - 1 do
    d.net_weight.{nid} <- 2.0
  done;
  let g2 = grad_norm () in
  Design.reset_net_weights d;
  check_float "gradient scales with weights" (2.0 *. g1) g2

(* ---------------- Density ---------------- *)

let test_density_mass_conservation () =
  let d = spread_design () in
  let grid = Gp.Densitygrid.create ~par:(Helpers.par ()) d ~bins_x:32 ~bins_y:32 in
  Gp.Densitygrid.update grid d;
  let total = Array.fold_left ( +. ) 0.0 grid.Gp.Densitygrid.density in
  let expect = Design.movable_area d in
  Alcotest.(check bool)
    (Printf.sprintf "mass %.2f ~ area %.2f" total expect)
    true
    (Float.abs (total -. expect) < 0.02 *. expect)

let test_density_fixed_blockages () =
  let d = Lazy.force Helpers.small_generated in
  let grid = Gp.Densitygrid.create ~par:(Helpers.par ()) d ~bins_x:32 ~bins_y:32 in
  let fixed_total = Array.fold_left ( +. ) 0.0 grid.Gp.Densitygrid.fixed in
  (* Boundary pads hang half-off the die, so expectation uses the
     die-clipped area of each fixed cell. *)
  let expect = ref 0.0 in
  for id = 0 to Design.num_cells d - 1 do
    if not (Design.is_movable d id) then
      expect := !expect +. Geom.Rect.overlap_area d.die (Design.cell_rect d id)
  done;
  let expect = !expect in
  Alcotest.(check bool) "fixed mass" true (Float.abs (fixed_total -. expect) < 0.05 *. expect +. 1.0)

let test_overflow_extremes () =
  let d = spread_design () in
  let grid = Gp.Densitygrid.create ~par:(Helpers.par ()) d ~bins_x:32 ~bins_y:32 in
  (* Everything stacked in one corner: overflow near 1. *)
  for id = 0 to Design.num_cells d - 1 do
    if Design.is_movable d id then begin
      d.x.{id} <- 2.0;
      d.y.{id} <- 2.0
    end
  done;
  Gp.Densitygrid.update grid d;
  let ovf_stacked =
    Gp.Densitygrid.overflow grid ~target_density:1.0 ~movable_area:(Design.movable_area d)
  in
  Alcotest.(check bool) "stacked overflow high" true (ovf_stacked > 0.5);
  (* Spread again: overflow must drop. *)
  let d2 = spread_design () in
  Gp.Densitygrid.update grid d2;
  let ovf_spread =
    Gp.Densitygrid.overflow grid ~target_density:1.0 ~movable_area:(Design.movable_area d2)
  in
  Alcotest.(check bool) "spread much lower" true (ovf_spread < ovf_stacked /. 2.0)

let test_electro_force_spreads () =
  (* Cells stacked at the centre: the field at the stack points outward,
     i.e. following -gradient increases distance from the stack. *)
  let d = spread_design () in
  let ctr = Geom.Rect.center d.die in
  for id = 0 to Design.num_cells d - 1 do
    if Design.is_movable d id then begin
      d.x.{id} <- ctr.Geom.Point.x +. 3.0;
      d.y.{id} <- ctr.Geom.Point.y
    end
  done;
  let grid = Gp.Densitygrid.create ~par:(Helpers.par ()) d ~bins_x:32 ~bins_y:32 in
  Gp.Densitygrid.update grid d;
  let el = Gp.Electro.create grid in
  Gp.Electro.solve el ~target_density:1.0;
  let n = Design.num_cells d in
  let gx = Array.make n 0.0 and gy = Array.make n 0.0 in
  Gp.Electro.add_grad el d ~gx ~gy;
  (* Descending the gradient moves the cell away from the overfull spot:
     probe a test cell shifted right of the stack. *)
  let id = List.hd (Design.movable_ids d) in
  d.x.{id} <- ctr.Geom.Point.x +. 8.0;
  Gp.Densitygrid.update grid d;
  Gp.Electro.solve el ~target_density:1.0;
  Array.fill gx 0 n 0.0;
  Array.fill gy 0 n 0.0;
  Gp.Electro.add_grad el d ~gx ~gy;
  Alcotest.(check bool) "pushed right (descent increases x)" true (gx.(id) < 0.0)

let test_electro_energy_decreases_with_spreading () =
  let d = spread_design () in
  let grid = Gp.Densitygrid.create ~par:(Helpers.par ()) d ~bins_x:32 ~bins_y:32 in
  let el = Gp.Electro.create grid in
  let energy_at placement =
    placement ();
    Gp.Densitygrid.update grid d;
    Gp.Electro.solve el ~target_density:1.0;
    Numerics.Poisson.energy el.Gp.Electro.rho el.Gp.Electro.psi
  in
  let ctr = Geom.Rect.center d.die in
  let stacked =
    energy_at (fun () ->
        for id = 0 to Design.num_cells d - 1 do
          if Design.is_movable d id then begin
            d.x.{id} <- ctr.Geom.Point.x;
            d.y.{id} <- ctr.Geom.Point.y
          end
        done)
  in
  let spread =
    energy_at (fun () ->
        let rng = Util.Rng.create 31 in
        for id = 0 to Design.num_cells d - 1 do
          if Design.is_movable d id then begin
            d.x.{id} <- Util.Rng.float rng (Geom.Rect.width d.die);
            d.y.{id} <- Util.Rng.float rng (Geom.Rect.height d.die)
          end
        done)
  in
  Alcotest.(check bool) "stacked energy higher" true (stacked > spread)

let test_electro_buffers_reused () =
  (* The solver state is allocated once in [create] and rewritten in
     place: repeated solves must keep the same physical arrays (no
     per-iteration psi/ex/ey churn) while still changing their values. *)
  let d = spread_design () in
  let grid = Gp.Densitygrid.create ~par:(Helpers.par ()) d ~bins_x:32 ~bins_y:32 in
  Gp.Densitygrid.update grid d;
  let el = Gp.Electro.create grid in
  Gp.Electro.solve el ~target_density:1.0;
  let psi0 = el.Gp.Electro.psi and ex0 = el.Gp.Electro.ex and ey0 = el.Gp.Electro.ey in
  let psi_snapshot = Array.copy psi0 in
  (* Perturb the placement so the next solve produces a different field. *)
  let ctr = Geom.Rect.center d.die in
  for id = 0 to Design.num_cells d - 1 do
    if Design.is_movable d id then begin
      d.x.{id} <- ctr.Geom.Point.x;
      d.y.{id} <- ctr.Geom.Point.y
    end
  done;
  Gp.Densitygrid.update grid d;
  Gp.Electro.solve el ~target_density:1.0;
  Alcotest.(check bool) "psi same array" true (el.Gp.Electro.psi == psi0);
  Alcotest.(check bool) "ex same array" true (el.Gp.Electro.ex == ex0);
  Alcotest.(check bool) "ey same array" true (el.Gp.Electro.ey == ey0);
  Alcotest.(check bool) "psi values updated" true (el.Gp.Electro.psi <> psi_snapshot)

(* ---------------- Nesterov ---------------- *)

let test_nesterov_quadratic_bowl () =
  (* f(x) = 0.5 * ||x - c||^2, gradient x - c. *)
  let target = [| 3.0; -2.0; 7.0 |] in
  let opt = Gp.Nesterov.create [| 0.0; 0.0; 0.0 |] in
  for _ = 1 to 200 do
    let v = Gp.Nesterov.reference opt in
    let g = Array.mapi (fun i vi -> vi -. target.(i)) v in
    Gp.Nesterov.step opt ~g ~fallback_step:0.1 ~max_step:1.0 ~clamp:(fun _ -> ())
  done;
  let u = Gp.Nesterov.iterate opt in
  Array.iteri
    (fun i v -> Alcotest.(check bool) "converged" true (Float.abs (v -. target.(i)) < 1e-3))
    u

let test_nesterov_respects_clamp () =
  let opt = Gp.Nesterov.create [| 0.5 |] in
  let clamp v = v.(0) <- Float.max 0.0 (Float.min 1.0 v.(0)) in
  for _ = 1 to 50 do
    let v = Gp.Nesterov.reference opt in
    (* gradient pushing hard out of the box *)
    let g = [| -100.0 *. (1.0 +. v.(0)) |] in
    Gp.Nesterov.step opt ~g ~fallback_step:0.5 ~max_step:10.0 ~clamp
  done;
  let u = Gp.Nesterov.iterate opt in
  Alcotest.(check bool) "stays in box" true (u.(0) >= 0.0 && u.(0) <= 1.0)

(* ---------------- Globalplace ---------------- *)

let gp_test_params =
  { Gp.Globalplace.default_params with max_iters = 260; min_iters = 80 }

let test_globalplace_reduces_overflow () =
  let d = Helpers.small_calibrated () in
  let r = Gp.Globalplace.run ~params:gp_test_params d in
  Alcotest.(check bool) "ran iterations" true (r.iters > 10);
  Alcotest.(check bool) "overflow shrank" true (r.final_overflow < 0.35);
  (* All movable cells inside the die. *)
  for id = 0 to Design.num_cells d - 1 do
    if Design.is_movable d id then begin
      let rect = Design.cell_rect d id in
      Alcotest.(check bool) "in die" true
        (rect.xl >= d.die.xl -. 1e-6 && rect.xh <= d.die.xh +. 1e-6)
    end
  done

let test_globalplace_deterministic () =
  let d1 = Helpers.small_calibrated () in
  let d2 = Helpers.small_calibrated () in
  let r1 = Gp.Globalplace.run ~params:gp_test_params d1 in
  let r2 = Gp.Globalplace.run ~params:gp_test_params d2 in
  check_float "same hpwl" r1.final_hpwl r2.final_hpwl;
  Alcotest.(check int) "same iters" r1.iters r2.iters

(* The engine calls both hooks once per iteration, in iteration order;
   when timing rounds fire is the flow's rule (tdp "flow: round
   schedule"). *)
let test_globalplace_hooks_fire () =
  let d = Helpers.small_calibrated () in
  let rounds = ref 0 and grads = ref 0 in
  let hooks =
    {
      Gp.Globalplace.on_round =
        (fun ~iter ~overflow:_ ->
          Alcotest.(check int) "round at each iteration" !rounds iter;
          incr rounds);
      extra_grad =
        (fun ~iter ~wl_norm ~gx:_ ~gy:_ ->
          Alcotest.(check int) "grad after the round" (!rounds - 1) iter;
          incr grads;
          Alcotest.(check bool) "wl_norm positive" true (wl_norm > 0.0));
    }
  in
  let r = Gp.Globalplace.run ~params:gp_test_params ~hooks d in
  Alcotest.(check int) "rounds every iteration" r.iters !rounds;
  Alcotest.(check int) "grads every iteration" r.iters !grads

(* ---------------- Legalize ---------------- *)

let test_legalize_produces_legal () =
  let d = Helpers.small_calibrated () in
  ignore (Gp.Globalplace.run ~params:gp_test_params d);
  let disp = Gp.Legalize.run d in
  Alcotest.(check bool) "legal" true (Gp.Legalize.is_legal d);
  Alcotest.(check bool) "displacement sane" true (disp >= 0.0);
  (* no overlap with blockages *)
  for cid = 0 to Design.num_cells d - 1 do
    if (not (Design.is_movable d cid)) && Design.kind d cid = Design.Blockage then begin
      let b = Design.cell_rect d cid in
      for mid = 0 to Design.num_cells d - 1 do
        if Design.is_movable d mid then
          Alcotest.(check bool) "clear of blockage" true
            (Geom.Rect.overlap_area b (Design.cell_rect d mid) < 1e-6)
      done
    end
  done

let test_legalize_from_stack () =
  (* Even a fully stacked placement legalises. *)
  let d = Helpers.small_calibrated () in
  let ctr = Geom.Rect.center d.die in
  for id = 0 to Design.num_cells d - 1 do
    if Design.is_movable d id then begin
      d.x.{id} <- ctr.Geom.Point.x;
      d.y.{id} <- ctr.Geom.Point.y
    end
  done;
  ignore (Gp.Legalize.run d);
  Alcotest.(check bool) "legal from stack" true (Gp.Legalize.is_legal d)

let test_legalize_deterministic () =
  let run () =
    let d = Helpers.small_calibrated () in
    ignore (Gp.Globalplace.run ~params:gp_test_params d);
    ignore (Gp.Legalize.run d);
    Design.total_hpwl d
  in
  check_float "same result" (run ()) (run ())

let test_legalize_is_legal_detects_overlap () =
  let d = Helpers.chain_design () in
  (* Put u1 and u2 in the same row at overlapping x. *)
  d.x.{1} <- 10.0;
  d.y.{1} <- 10.5;
  d.x.{3} <- 10.2;
  d.y.{3} <- 10.5;
  d.x.{2} <- 50.0;
  d.y.{2} <- 20.5;
  Alcotest.(check bool) "overlap detected" false (Gp.Legalize.is_legal d)

(* ---------------- Detailed ---------------- *)

let test_detailed_improves_or_keeps () =
  let d = Helpers.small_calibrated () in
  ignore (Gp.Globalplace.run ~params:gp_test_params d);
  ignore (Gp.Legalize.run d);
  let before = Design.total_hpwl d in
  let swaps = Gp.Detailed.run d in
  let after = Design.total_hpwl d in
  Alcotest.(check bool) "hpwl not worse" true (after <= before +. 1e-6);
  Alcotest.(check bool) "legality preserved" true (Gp.Legalize.is_legal d);
  Alcotest.(check bool) "swap count sane" true (swaps >= 0)

let suite =
  [
    ("wa approaches hpwl", `Quick, test_wa_approaches_hpwl);
    ("wa gradient finite-diff", `Quick, test_wa_gradient_finite_diff);
    ("weighted hpwl scales", `Quick, test_weighted_wl_scales);
    ("wa respects net weights", `Quick, test_wa_respects_net_weights);
    ("density mass conservation", `Quick, test_density_mass_conservation);
    ("density fixed blockages", `Quick, test_density_fixed_blockages);
    ("overflow extremes", `Quick, test_overflow_extremes);
    ("electro force direction", `Quick, test_electro_force_spreads);
    ("electro energy vs spreading", `Quick, test_electro_energy_decreases_with_spreading);
    ("electro buffers reused", `Quick, test_electro_buffers_reused);
    ("nesterov quadratic bowl", `Quick, test_nesterov_quadratic_bowl);
    ("nesterov clamp", `Quick, test_nesterov_respects_clamp);
    ("globalplace reduces overflow", `Slow, test_globalplace_reduces_overflow);
    ("globalplace deterministic", `Slow, test_globalplace_deterministic);
    ("globalplace hooks", `Slow, test_globalplace_hooks_fire);
    ("legalize produces legal", `Slow, test_legalize_produces_legal);
    ("legalize from stack", `Quick, test_legalize_from_stack);
    ("legalize deterministic", `Slow, test_legalize_deterministic);
    ("is_legal detects overlap", `Quick, test_legalize_is_legal_detects_overlap);
    ("detailed placement", `Slow, test_detailed_improves_or_keeps);
  ]

(* The WA gradient and value at 2 and 4 domains are the 1-domain bits:
   each cell sums its own per-pin slots in net-CSR order. *)
let test_wa_parallel_equivalence () =
  let d = spread_design () in
  let n = Design.num_cells d in
  let run nd =
    let par, seen = Helpers.counting_par nd in
    let gx = Array.make n 0.0 and gy = Array.make n 0.0 in
    let v = Gp.Wirelength.wa_wirelength_grad ~par d ~gamma:2.0 ~gx ~gy in
    Helpers.check_chunks seen "wl.grad" nd;
    Helpers.check_chunks seen "wl.grad.cells" nd;
    Array.concat [ [| v |]; gx; gy ]
  in
  let bits a = Array.map Int64.bits_of_float a in
  let want = bits (run 1) in
  List.iter
    (fun nd ->
      Alcotest.(check (array int64))
        (Printf.sprintf "value and gradient bitwise at %d domains" nd)
        want
        (bits (run nd)))
    [ 2; 4 ]

let suite = suite @ [ ("wa gradient parallel equivalence", `Quick, test_wa_parallel_equivalence) ]

(* ---------------- Bitwise fixture and allocation budget ---------------- *)

(* test/fixtures/gp_kernels (written by test/gen_gp_fixture.ml) pins the
   density grid, the Poisson potential/field/energy, 200-iteration
   vanilla placements, detailed placement and every Tdp.Flow method bit
   for bit. Results do not depend on the domain count, so the test reruns
   the generator at 1, 2 and 4 domains and compares each run with the one
   committed section, line by line: every array line carries per-block
   digests of the IEEE-754 bits, so a single flipped ulp fails and is
   reported with its array and block. *)
let fixture_path rel =
  if Sys.file_exists rel then rel
  else
    let alt = Filename.concat "test" rel in
    if Sys.file_exists alt then alt
    else Alcotest.failf "fixture %s not found (run from the repo root or via dune runtest)" rel

let read_lines path = List.filter (( <> ) "") (String.split_on_char '\n' (Helpers.read_file path))

let test_gp_bitwise_fixture () =
  let want = read_lines (fixture_path "fixtures/gp_kernels") in
  let gen = Filename.concat (Filename.dirname Sys.executable_name) "gen_gp_fixture.exe" in
  List.iter
    (fun domains ->
      Helpers.with_temp_dir (fun dir ->
          let out = Filename.concat dir "gp_kernels" in
          let rc = Sys.command (Printf.sprintf "PARALLEL_DOMAINS=%d %s > %s" domains gen out) in
          Alcotest.(check int) "generator exit code" 0 rc;
          let rec cmp array = function
            | [], [] -> ()
            | w :: ws, g :: gs ->
                if w <> g then
                  Alcotest.failf "domains %d, %s: fixture %S, got %S" domains array w g;
                let array = if String.starts_with ~prefix:"array " w then w else array in
                cmp array (ws, gs)
            | _ -> Alcotest.failf "domains %d: output length differs" domains
          in
          cmp "(header)" (want, read_lines out)))
    [ 1; 2; 4 ]

(* A steady-state vanilla iteration on sb1 allocates almost nothing: the
   difference between a 150- and a 50-iteration run is exactly the
   allocation of iterations 50..149 (the first 50 replay bit for bit).
   Words allocated straight into the major heap count too, so a per-cell
   scratch array (longer than the minor heap's size limit) re-entering
   the loop fails this test. *)
let test_globalplace_iteration_alloc () =
  let par = Util.Parallel.create 1 in
  let words iters =
    let d = Workloads.Suite.load ~calibrate:false ~scale:0.5 "sb1" in
    let params = { Gp.Globalplace.default_params with max_iters = iters; min_iters = iters } in
    (* [Gc.counters]'s minor count lags on OCaml 5; [Gc.minor_words]
       is exact. Its major count less promotions is what went
       straight to the major heap. *)
    let _, promoted0, major0 = Gc.counters () in
    let minor0 = Gc.minor_words () in
    let r = Gp.Globalplace.run ~par ~params d in
    let minor1 = Gc.minor_words () in
    let _, promoted1, major1 = Gc.counters () in
    Alcotest.(check int) "iterations run" iters r.Gp.Globalplace.iters;
    minor1 -. minor0 +. (major1 -. major0) -. (promoted1 -. promoted0)
  in
  (* warm-up: the first run pays one-time initialisation *)
  ignore (words 50);
  let short = words 50 in
  let long = words 150 in
  let per_iter = (long -. short) /. 100.0 in
  if per_iter > 200.0 then
    Alcotest.failf "%.1f words per steady-state iteration (budget 200)" per_iter

(* Detailed placement scores candidates against a per-call workspace:
   the whole run allocates a bounded number of words per movable cell
   (the workspace, the sweep order and the row buckets), not per
   candidate. Direct major-heap words count, as above. *)
let test_detailed_alloc () =
  let d = Workloads.Suite.load ~calibrate:false ~scale:0.5 "sb1" in
  let params = { Gp.Globalplace.default_params with max_iters = 200; min_iters = 200 } in
  ignore (Gp.Globalplace.run ~par:(Util.Parallel.create 1) ~params d);
  ignore (Gp.Legalize.run d);
  let _, promoted0, major0 = Gc.counters () in
  let minor0 = Gc.minor_words () in
  let improved = Gp.Detailed.run d in
  let minor1 = Gc.minor_words () in
  let _, promoted1, major1 = Gc.counters () in
  let words = minor1 -. minor0 +. (major1 -. major0) -. (promoted1 -. promoted0) in
  let per_cell = words /. float_of_int (Design.num_movable d) in
  Alcotest.(check bool) "some improvements" true (improved > 0);
  if per_cell > 200.0 then
    Alcotest.failf "%.1f words per movable cell (budget 200)" per_cell

let suite =
  suite
  @ [
      ("gp kernels match bitwise fixture", `Slow, test_gp_bitwise_fixture);
      ("globalplace iteration allocation", `Quick, test_globalplace_iteration_alloc);
      ("detailed placement allocation", `Quick, test_detailed_alloc);
    ]
