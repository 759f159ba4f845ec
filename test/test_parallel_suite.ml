(* Persistent-pool parallel runtime: pool lifecycle, the determinism
   contract, and parallel-vs-sequential equivalence of every ported
   kernel (density, DCT/Poisson, STA propagation, extraction, pin-pair
   gradient). All equivalence tests compare 1 domain against 4. *)

open Helpers

let check_float = Alcotest.(check (float 1e-9))

(* Max relative difference between two float arrays. *)
let max_rel_diff a b =
  let m = ref 0.0 in
  Array.iteri
    (fun i v ->
      let d = Float.abs (v -. b.(i)) /. Float.max 1.0 (Float.abs v) in
      m := Float.max !m d)
    a;
  !m

let check_bitwise name a b =
  Alcotest.(check bool)
    name true
    (Array.length a = Array.length b && Array.for_all2 (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)) a b)

(* ---------------- pool lifecycle ---------------- *)

let test_pool_spawns_once () =
  with_domains 4 (fun () ->
      (* Warm the pool, then many calls and domain-count toggles must not
         spawn again: workers are parked between jobs, and the pool only
         grows to the max worker count ever requested. *)
      Util.Parallel.for_ ~grain:1 100 (fun _ -> ());
      let s0 = Util.Parallel.spawned () in
      Alcotest.(check bool) "pool exists" true (s0 >= 3);
      for _ = 1 to 50 do
        Util.Parallel.for_ ~grain:1 1000 (fun _ -> ())
      done;
      Util.Parallel.set_num_domains 1;
      ignore (Util.Parallel.sum 10 float_of_int);
      Util.Parallel.set_num_domains 4;
      ignore (Util.Parallel.sum ~grain:1 1000 float_of_int);
      Alcotest.(check int) "no respawn" s0 (Util.Parallel.spawned ()))

let test_pool_many_small_calls () =
  with_domains 4 (fun () ->
      let n = 64 in
      let a = Array.make n 0 in
      for _ = 1 to 1000 do
        Util.Parallel.for_ ~grain:8 n (fun i -> a.(i) <- a.(i) + 1)
      done;
      Alcotest.(check bool) "all counted" true (Array.for_all (fun v -> v = 1000) a))

let test_nested_dispatch_rejected () =
  with_domains 4 (fun () ->
      Alcotest.check_raises "nested dispatch"
        (Invalid_argument
           "Util.Parallel: nested parallel dispatch (a kernel body called a parallel entry point)")
        (fun () ->
          Util.Parallel.for_ ~grain:1 64 (fun _ ->
              ignore (Util.Parallel.sum ~grain:1 64 float_of_int)));
      (* The pool must stay usable. *)
      check_float "pool alive" 4950.0 (Util.Parallel.sum ~grain:1 100 float_of_int))

let test_pool_survives_exception () =
  with_domains 4 (fun () ->
      Alcotest.check_raises "body exception propagates" (Failure "boom") (fun () ->
          Util.Parallel.for_ ~grain:1 1000 (fun i -> if i = 977 then failwith "boom"));
      let s = Util.Parallel.sum ~grain:1 1000 float_of_int in
      check_float "pool alive after raise" 499500.0 s)

(* ---------------- determinism contract ---------------- *)

(* Reference reduction: the contract's fixed partition, spelled out. *)
let chunked_sum d n f =
  if d <= 1 then (
    let acc = ref 0.0 in
    for i = 0 to n - 1 do
      acc := !acc +. f i
    done;
    !acc)
  else begin
    let per = (n + d - 1) / d in
    let total = ref 0.0 in
    for c = 0 to d - 1 do
      let acc = ref 0.0 in
      for i = c * per to min n ((c + 1) * per) - 1 do
        acc := !acc +. f i
      done;
      total := !total +. !acc
    done;
    !total
  end

let test_sum_matches_fixed_partition () =
  let f i = sin (float_of_int i) /. (1.0 +. float_of_int (i mod 97)) in
  List.iter
    (fun n ->
      let expect = chunked_sum 4 n f in
      with_domains 4 (fun () ->
          (* Dispatched (grain 1) and inline (huge grain) paths must both
             produce the partitioned result, bitwise. *)
          let dispatched = Util.Parallel.sum ~grain:1 n f in
          let inline = Util.Parallel.sum ~grain:max_int n f in
          Alcotest.(check bool)
            (Printf.sprintf "n=%d dispatched bitwise" n)
            true
            (Int64.equal (Int64.bits_of_float expect) (Int64.bits_of_float dispatched));
          Alcotest.(check bool)
            (Printf.sprintf "n=%d inline == dispatched" n)
            true
            (Int64.equal (Int64.bits_of_float inline) (Int64.bits_of_float dispatched))))
    [ 0; 1; 10; 512; 1000; 5000; 100_000 ]

let test_sum_sequential_close () =
  (* 1-domain and 4-domain sums associate differently but must agree to
     rounding. *)
  let f i = sqrt (float_of_int i) in
  let n = 50_000 in
  let s1 = with_domains 1 (fun () -> Util.Parallel.sum n f) in
  let s4 = with_domains 4 (fun () -> Util.Parallel.sum ~grain:1 n f) in
  Alcotest.(check bool) "1 vs 4 domains" true (Float.abs (s1 -. s4) /. Float.abs s1 < 1e-12)

let test_for_chunks_partition () =
  (* The contract's fixed partition: chunk c covers [c*per, min n ((c+1)*per))
     with per = ceil(n/4), empty chunks are skipped, and the dispatched and
     inline paths see the same chunks. *)
  let expect n =
    let per = (n + 3) / 4 in
    List.filter_map
      (fun c ->
        let lo = c * per and hi = min n ((c + 1) * per) in
        if lo < hi then Some (c, lo, hi) else None)
      [ 0; 1; 2; 3 ]
  in
  let observed ~grain n =
    let slots = Array.make 4 None in
    Util.Parallel.for_chunks ~grain ~n (fun ~chunk ~lo ~hi ->
        (* One call per chunk, so each slot has a single writer. *)
        slots.(chunk) <- Some (chunk, lo, hi));
    List.filter_map Fun.id (Array.to_list slots)
  in
  let chunks = Alcotest.(list (triple int int int)) in
  with_domains 4 (fun () ->
      List.iter
        (fun n ->
          Alcotest.check chunks (Printf.sprintf "n=%d dispatched" n) (expect n) (observed ~grain:1 n);
          Alcotest.check chunks (Printf.sprintf "n=%d inline" n) (expect n) (observed ~grain:max_int n))
        [ 0; 1; 2; 3; 5; 255; 256; 1025 ])

let test_chunk_count_fixed () =
  with_domains 4 (fun () ->
      (* Determinism requires the partition to ignore n (beyond n=0). *)
      Alcotest.(check int) "small n" 4 (Util.Parallel.chunk_count ~n:2);
      Alcotest.(check int) "big n" 4 (Util.Parallel.chunk_count ~n:1_000_000);
      Alcotest.(check int) "n=0" 1 (Util.Parallel.chunk_count ~n:0));
  with_domains 1 (fun () -> Alcotest.(check int) "sequential" 1 (Util.Parallel.chunk_count ~n:100))

let test_iter_chunks_scratch_merge () =
  let n = 10_000 in
  let expect = Array.make 10 0 in
  for i = 0 to n - 1 do
    let b = i mod 10 in
    expect.(b) <- expect.(b) + 1
  done;
  with_domains 4 (fun () ->
      let bufs =
        Util.Parallel.iter_chunks_scratch ~grain:1 ~n
          ~scratch:(fun () -> Array.make 10 0)
          (fun ~scratch ~chunk:_ ~lo ~hi ->
            for i = lo to hi - 1 do
              let b = i mod 10 in
              scratch.(b) <- scratch.(b) + 1
            done)
      in
      Alcotest.(check int) "one buffer per chunk" 4 (Array.length bufs);
      let merged = Array.make 10 0 in
      Array.iter (fun buf -> Array.iteri (fun b v -> merged.(b) <- merged.(b) + v) buf) bufs;
      Alcotest.(check (array int)) "histogram merge" expect merged)

(* ---------------- kernel equivalence: 1 vs 4 domains ---------------- *)

let test_density_grid_equivalence () =
  let d = Lazy.force small_generated in
  let run nd =
    with_domains nd (fun () ->
        let grid = Gp.Densitygrid.create d ~bins_x:32 ~bins_y:32 in
        Gp.Densitygrid.update grid d;
        let movable_area = ref 0.0 in
        for id = 0 to Netlist.Design.num_cells d - 1 do
          match Netlist.Design.kind d id with
          | Netlist.Design.Logic ->
              movable_area := !movable_area +. (d.Netlist.Design.w.{id} *. d.Netlist.Design.h.{id})
          | _ -> ()
        done;
        let movable_area = !movable_area in
        let ovf = Gp.Densitygrid.overflow grid ~target_density:1.0 ~movable_area in
        (Array.copy grid.Gp.Densitygrid.density, ovf))
  in
  let d1, o1 = run 1 and d4, o4 = run 4 in
  Alcotest.(check bool) "bins agree" true (max_rel_diff d1 d4 < 1e-9);
  Alcotest.(check bool) "overflow agrees" true (Float.abs (o1 -. o4) < 1e-9 *. (1.0 +. Float.abs o1))

let test_dct_poisson_equivalence () =
  let rows = 64 and cols = 64 in
  let charge =
    Array.init (rows * cols) (fun i -> sin (0.37 *. float_of_int i) +. (0.01 *. float_of_int (i mod 13)))
  in
  let run nd =
    with_domains nd (fun () ->
        let spec = Helpers.plan_dct charge ~rows ~cols in
        let p = Numerics.Poisson.create ~rows ~cols in
        let psi = Numerics.Poisson.solve p charge in
        let ex, ey = Numerics.Poisson.field p charge in
        let en = Numerics.Poisson.energy charge psi in
        (spec, psi, ex, ey, en))
  in
  let s1, psi1, ex1, ey1, en1 = run 1 in
  let s4, psi4, ex4, ey4, en4 = run 4 in
  (* Row/column passes keep per-line arithmetic intact: bitwise equal. *)
  check_bitwise "dct bitwise" s1 s4;
  check_bitwise "poisson psi bitwise" psi1 psi4;
  check_bitwise "field ex bitwise" ex1 ex4;
  check_bitwise "field ey bitwise" ey1 ey4;
  Alcotest.(check bool) "energy agrees" true (Float.abs (en1 -. en4) /. Float.abs en1 < 1e-12)

let test_sta_propagation_equivalence () =
  let d = small_calibrated () in
  let run nd =
    with_domains nd (fun () ->
        let timer = Sta.Timer.create d in
        Sta.Timer.update timer;
        (Array.copy (Sta.Timer.arrivals timer), Array.copy (Sta.Timer.slacks timer)))
  in
  let arr1, sl1 = run 1 and arr4, sl4 = run 4 in
  (* Levelized max/min propagation is exact: bitwise equal. *)
  check_bitwise "arrivals bitwise" arr1 arr4;
  check_bitwise "slacks bitwise" sl1 sl4

let test_extraction_equivalence () =
  let d = small_calibrated () in
  let run nd =
    with_domains nd (fun () ->
        let timer = Sta.Timer.create d in
        Sta.Timer.update timer;
        Sta.Timer.report_timing_endpoint timer ~failing_only:false ~n:20 ~k:5)
  in
  let p1 = run 1 and p4 = run 4 in
  Alcotest.(check int) "same path count" (List.length p1) (List.length p4);
  List.iter2
    (fun (a : Sta.Paths.path) (b : Sta.Paths.path) ->
      Alcotest.(check int) "endpoint" a.endpoint b.endpoint;
      check_float "slack" a.slack b.slack;
      Alcotest.(check (array int)) "arcs" a.arcs b.arcs)
    p1 p4

let test_pin_attract_equivalence () =
  let d = Lazy.force small_generated in
  let npins = Netlist.Design.num_pins d in
  let ncells = Netlist.Design.num_cells d in
  let run nd =
    with_domains nd (fun () ->
        let t = Tdp.Pin_attract.create d ~loss:Tdp.Config.Quadratic in
        (* Synthesise a deterministic pair set: momentum-fold arbitrary
           (i, j) pin pairs so the test does not depend on the design
           having timing violations. *)
        for i = 0 to 799 do
          let pi = (i * 131) mod npins in
          let pj = ((i * 197) + 5) mod npins in
          if pi <> pj then
            Tdp.Pin_attract.update_pair_momentum t ~pin_i:pi ~pin_j:pj
              ~w_hat:(1.0 +. float_of_int (i mod 7))
              ~momentum:0.5
        done;
        let gx = Array.make ncells 0.0 and gy = Array.make ncells 0.0 in
        Tdp.Pin_attract.add_grad t ~gx ~gy;
        (gx, gy))
  in
  let gx1, gy1 = run 1 and gx4, gy4 = run 4 in
  Alcotest.(check bool) "gx agrees" true (max_rel_diff gx1 gx4 < 1e-9);
  Alcotest.(check bool) "gy agrees" true (max_rel_diff gy1 gy4 < 1e-9)

let suite =
  [
    ("pool spawns once", `Quick, test_pool_spawns_once);
    ("pool many small calls", `Quick, test_pool_many_small_calls);
    ("nested dispatch rejected", `Quick, test_nested_dispatch_rejected);
    ("pool survives exception", `Quick, test_pool_survives_exception);
    ("sum matches fixed partition", `Quick, test_sum_matches_fixed_partition);
    ("sum 1 vs 4 domains close", `Quick, test_sum_sequential_close);
    ("for_chunks partition", `Quick, test_for_chunks_partition);
    ("chunk_count fixed per domains", `Quick, test_chunk_count_fixed);
    ("iter_chunks_scratch merge", `Quick, test_iter_chunks_scratch_merge);
    ("density grid 1 vs 4 domains", `Quick, test_density_grid_equivalence);
    ("dct/poisson 1 vs 4 domains", `Quick, test_dct_poisson_equivalence);
    ("sta propagation 1 vs 4 domains", `Quick, test_sta_propagation_equivalence);
    ("extraction 1 vs 4 domains", `Quick, test_extraction_equivalence);
    ("pin attraction 1 vs 4 domains", `Quick, test_pin_attract_equivalence);
  ]
