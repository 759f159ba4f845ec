(* Writes the global-placement bitwise fixture read by the gp suite
   ("gp kernels match bitwise fixture"): the outputs of the density,
   Poisson and optimizer layers on fixed inputs.

   - [Densitygrid.update] on sb1/sb7 (scale 0.5, auto grid) at the
     initial spread and after 100 vanilla iterations, and on a small
     hand-built design whose macros and cell edges sit exactly on bin
     and die boundaries;
   - [Poisson.solve_into] + [field_into] (psi, ex, ey) and [energy] on
     seeded charge grids at 32x32, 64x64, 64x128 and 256x256;
   - the final x/y of a 200-iteration vanilla [Globalplace.run] on sb1
     and sb18 (scale 0.5);
   - [Detailed.pass ~window:6], then [Detailed.reorder_rows], then
     [Detailed.run] on sb1, sb7 and sb18 (scale 0.5) after 200 vanilla
     iterations and [Legalize.run]: each return value and the final x/y;
   - [Tdp.Flow.run] of every flow name on sb1 (scale 0.15): hpwl, tns
     and wns of [metrics] and [metrics_gp], the curve length and the
     final x/y; then a warm rerun of dp4 and efficient on the placement
     the cold run left.

   Arrays are long (a 256x256 field is 65536 values), so each one is
   written as its length, its first and last values as OCaml hex
   literals, and an MD5 of every value's IEEE-754 bit pattern per block
   of [block] values; a mismatch is located to its block. Scalars are
   hex literals. Results do not depend on the domain count, so there is
   one section: the test runs the generator at 1, 2 and 4 domains
   (PARALLEL_DOMAINS=N, as for the test runner; default 1) and compares
   every run with it. Every kernel runs on one [Util.Parallel.t] of N
   domains whose hook counts the chunks of each named kernel; the
   generator exits 1 if a kernel below ran with any other count, so a
   run that silently stayed on one domain cannot pass.

     dune exec test/gen_gp_fixture.exe > test/fixtures/gp_kernels

   Regenerate only when placement results are meant to change. *)

open Netlist

let block = 256

let domains =
  match Sys.getenv_opt "PARALLEL_DOMAINS" with Some s -> int_of_string s | None -> 1

(* Kernel name -> chunk counts its calls ran with. *)
let chunks_seen : (string, int list) Hashtbl.t = Hashtbl.create 16

let par =
  Util.Parallel.create domains ~instrument:(fun (s : Util.Parallel.stats) ->
      let seen = Option.value ~default:[] (Hashtbl.find_opt chunks_seen s.kernel) in
      if not (List.mem s.chunks seen) then Hashtbl.replace chunks_seen s.kernel (s.chunks :: seen))

(* Kernels every section set above runs; each must have run with
   exactly [domains] chunks. *)
let check_chunks () =
  List.iter
    (fun k ->
      match Hashtbl.find_opt chunks_seen k with
      | Some [ c ] when c = domains -> ()
      | seen ->
          Printf.eprintf "gen_gp_fixture: kernel %s ran with chunks [%s], expected %d\n" k
            (String.concat ";" (List.map string_of_int (Option.value ~default:[] seen)))
            domains;
          exit 1)
    [
      "density.bins";
      "dct.rows";
      "poisson.filter";
      "poisson.field";
      "electro.grad";
      "wl.grad";
      "wl.grad.cells";
      "sta.delay.nets";
      "sta.arrival.level";
      "sta.required.level";
      "sta.slack";
      "extract.endpoints";
    ]

let scale = 0.5

let floats_of_farr (a : Design.farr) = Array.init (Bigarray.Array1.dim a) (Bigarray.Array1.get a)

let bits_digest a lo hi =
  let b = Bytes.create (8 * (hi - lo)) in
  for i = lo to hi - 1 do
    Bytes.set_int64_le b (8 * (i - lo)) (Int64.bits_of_float a.(i))
  done;
  Digest.to_hex (Digest.bytes b)

let emit_array name (a : float array) =
  let n = Array.length a in
  if n = 0 then Printf.printf "array %s 0\n" name
  else Printf.printf "array %s %d %h %h\n" name n a.(0) a.(n - 1);
  for k = 0 to ((n + block - 1) / block) - 1 do
    Printf.printf "block %d %s\n" k (bits_digest a (k * block) (min n ((k + 1) * block)))
  done

let emit_scalar name v = Printf.printf "scalar %s %h\n" name v

let emit_count name n = Printf.printf "count %s %d\n" name n

let density_of d ~bins =
  let g = Gp.Densitygrid.create ~par d ~bins_x:bins ~bins_y:bins in
  Gp.Densitygrid.update g d;
  g.Gp.Densitygrid.density

let vanilla iters = { Gp.Globalplace.default_params with max_iters = iters; min_iters = iters }

let density_cases () =
  List.iter
    (fun short ->
      let d = Workloads.Suite.load ~scale short in
      let bins = Gp.Globalplace.auto_bins d in
      let g = Gp.Densitygrid.create ~par d ~bins_x:bins ~bins_y:bins in
      Gp.Globalplace.initial_spread d ~bin_w:g.Gp.Densitygrid.bin_w ~bin_h:g.Gp.Densitygrid.bin_h
        ~seed:1;
      emit_array (short ^ ".spread.density") (density_of d ~bins);
      ignore (Gp.Globalplace.run ~par ~params:(vanilla 100) d);
      emit_array (short ^ ".iter100.density") (density_of d ~bins))
    [ "sb1"; "sb7" ]

(* A 64x64 die offset from the origin with 8x8 and 16x16 grids (bin
   sides 8 and 4): cells inflated to exactly a bin, cells and macros
   whose edges land on bin lines and on the die edges, multi-bin cells
   wider than the die, cells straddling the die edge, and fixed
   blockages covering whole bins. *)
let boundary_design () =
  let die = Geom.Rect.make ~xl:(-32.0) ~yl:(-16.0) ~xh:32.0 ~yh:48.0 in
  let b =
    Builder.create ~name:"edges" ~die ~row_height:1.0 ~clock_period:100.0 ~r_per_unit:0.1
      ~c_per_unit:0.2
  in
  let lib = Some (Libcell.find_in_library "INV_X1") in
  let cell i ~w ~h ~x ~y =
    ignore
      (Builder.add_raw_cell b ~cname:(Printf.sprintf "c%d" i) ~kind:Design.Logic ~lib ~w ~h
         ~movable:true ~x ~y)
  in
  let cells =
    [
      (* small cells: inflated extents start on the die corner, on bin
         lines, and end on the far die edges *)
      (1.0, 1.0, -28.0, -12.0);
      (1.0, 1.0, -20.0, -4.0);
      (2.0, 1.0, 28.0, 44.0);
      (1.0, 3.0, 0.0, 16.0);
      (0.5, 0.5, -32.0, -16.0);
      (1.0, 1.0, 32.0, 48.0);
      (* bin-sized and multi-bin cells, edges on bin lines *)
      (8.0, 8.0, -28.0, 44.0);
      (16.0, 8.0, 0.0, 0.0);
      (24.0, 16.0, 4.0, 24.0);
      (8.0, 24.0, -12.0, 20.0);
      (64.0, 8.0, 0.0, 8.0);
      (64.0, 64.0, 0.0, 16.0);
      (80.0, 8.0, 0.0, 36.0);
      (* straddling the die edges, and a non-dyadic size *)
      (16.0, 16.0, -36.0, 20.0);
      (16.0, 16.0, 36.0, -20.0);
      (20.5, 9.25, 6.125, 3.0);
      (12.0, 12.0, -0.0, -0.0);
    ]
  in
  List.iteri (fun i (w, h, x, y) -> cell i ~w ~h ~x ~y) cells;
  ignore (Builder.add_blockage b ~cname:"m0" ~x:(-16.0) ~y:32.0 ~w:16.0 ~h:16.0);
  ignore (Builder.add_blockage b ~cname:"m1" ~x:24.0 ~y:(-8.0) ~w:16.0 ~h:16.0);
  Builder.finish b

let boundary_cases () =
  let d = boundary_design () in
  List.iter
    (fun bins ->
      let g = Gp.Densitygrid.create ~par d ~bins_x:bins ~bins_y:bins in
      Gp.Densitygrid.update g d;
      emit_array (Printf.sprintf "edges.%d.density" bins) g.Gp.Densitygrid.density;
      emit_array (Printf.sprintf "edges.%d.fixed" bins) g.Gp.Densitygrid.fixed)
    [ 8; 16 ]

let poisson_cases () =
  let rng = Util.Rng.create 20261017 in
  List.iter
    (fun (rows, cols) ->
      let n = rows * cols in
      (* charge-like grids: a smooth bump plus noise, some exact zeros *)
      let rho =
        Array.init n (fun i ->
            let r = float_of_int (i / cols) /. float_of_int rows
            and c = float_of_int (i mod cols) /. float_of_int cols in
            if Util.Rng.int rng 16 = 0 then 0.0
            else
              (2.0 *. exp (-8.0 *. (((r -. 0.4) ** 2.0) +. ((c -. 0.6) ** 2.0))))
              +. Util.Rng.float_range rng (-0.5) 0.5
              -. 0.7)
      in
      let p = Numerics.Poisson.create ~par ~rows ~cols in
      let psi = Array.make n 0.0 and ex = Array.make n 0.0 and ey = Array.make n 0.0 in
      Numerics.Poisson.solve_into p ~rho ~psi;
      Numerics.Poisson.field_into p ~psi ~ex ~ey;
      let tag = Printf.sprintf "poisson.%dx%d" rows cols in
      emit_array (tag ^ ".psi") psi;
      emit_array (tag ^ ".ex") ex;
      emit_array (tag ^ ".ey") ey;
      emit_scalar (tag ^ ".energy") (Numerics.Poisson.energy rho psi))
    [ (32, 32); (64, 64); (64, 128); (256, 256) ]

let globalplace_cases () =
  List.iter
    (fun short ->
      let d = Workloads.Suite.load ~scale short in
      let r = Gp.Globalplace.run ~par ~params:(vanilla 200) d in
      emit_array (short ^ ".gp200.x") (floats_of_farr d.Design.x);
      emit_array (short ^ ".gp200.y") (floats_of_farr d.Design.y);
      emit_scalar (short ^ ".gp200.hpwl") r.Gp.Globalplace.final_hpwl)
    [ "sb1"; "sb18" ]

let detailed_cases () =
  List.iter
    (fun short ->
      let d = Workloads.Suite.load ~scale short in
      ignore (Gp.Globalplace.run ~par ~params:(vanilla 200) d);
      ignore (Gp.Legalize.run d);
      emit_count (short ^ ".detailed.pass6") (Gp.Detailed.pass d ~window:6);
      emit_count (short ^ ".detailed.reorder") (Gp.Detailed.reorder_rows d);
      emit_count (short ^ ".detailed.run") (Gp.Detailed.run d);
      emit_array (short ^ ".detailed.x") (floats_of_farr d.Design.x);
      emit_array (short ^ ".detailed.y") (floats_of_farr d.Design.y))
    [ "sb1"; "sb7"; "sb18" ]

let flow_cases () =
  let emit_metrics tag (m : Evalkit.Metrics.t) =
    emit_scalar (tag ^ ".hpwl") m.Evalkit.Metrics.hpwl;
    emit_scalar (tag ^ ".tns") m.Evalkit.Metrics.tns;
    emit_scalar (tag ^ ".wns") m.Evalkit.Metrics.wns
  in
  let emit_flow tag (d : Design.t) (r : Tdp.Flow.result) =
    emit_metrics (tag ^ ".metrics") r.Tdp.Flow.metrics;
    emit_metrics (tag ^ ".metrics_gp") r.Tdp.Flow.metrics_gp;
    emit_count (tag ^ ".curve") (List.length r.Tdp.Flow.curve);
    emit_array (tag ^ ".x") (floats_of_farr d.Design.x);
    emit_array (tag ^ ".y") (floats_of_farr d.Design.y)
  in
  List.iter
    (fun name ->
      let d = Workloads.Suite.load ~scale:0.15 "sb1" in
      let meth = Tdp.Flow.method_of_string name in
      emit_flow ("flow." ^ name) d (Tdp.Flow.run ~par meth d);
      if name = "dp4" || name = "efficient" then
        emit_flow ("flow." ^ name ^ ".warm") d (Tdp.Flow.run ~par ~warm:true meth d))
    [ "vanilla"; "dp4"; "diff"; "dist"; "efficient"; "noextract" ]

let () =
  Printf.printf
    "# gp bitwise fixture: per-block MD5 of IEEE-754 bits, block %d; ends are OCaml hex literals\n"
    block;
  density_cases ();
  boundary_cases ();
  poisson_cases ();
  globalplace_cases ();
  detailed_cases ();
  flow_cases ();
  check_chunks ()
