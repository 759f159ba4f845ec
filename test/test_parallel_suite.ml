(* Persistent-pool parallel runtime: pool lifecycle, the chunk
   partition, and the determinism contract — every ported kernel (WA
   gradient, density, DCT/Poisson, STA propagation, extraction, pin-pair
   gradient) gives the same bits at any domain count. *)

open Helpers

let check_float = Alcotest.(check (float 1e-9))

let check_bitwise name a b =
  Alcotest.(check bool)
    name true
    (Array.length a = Array.length b && Array.for_all2 (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)) a b)

(* ---------------- pool lifecycle ---------------- *)

let par4 = Util.Parallel.create 4

let nop par ~n = Util.Parallel.for_chunks par ~grain:1 ~n (fun ~chunk:_ ~lo:_ ~hi:_ -> ())

let test_pool_spawns_once () =
  (* Warm the pool, then many calls and values of other domain counts
     must not spawn again: workers are parked between jobs, and the pool
     only grows to the max worker count ever requested. *)
  nop par4 ~n:100;
  let s0 = Util.Parallel.spawned () in
  Alcotest.(check bool) "pool exists" true (s0 >= 3);
  for _ = 1 to 50 do
    nop par4 ~n:1000
  done;
  nop (Util.Parallel.create 1) ~n:10;
  nop (Util.Parallel.create 2) ~n:1000;
  nop par4 ~n:1000;
  Alcotest.(check int) "no respawn" s0 (Util.Parallel.spawned ())

let test_pool_many_small_calls () =
  let n = 64 in
  let a = Array.make n 0 in
  for _ = 1 to 1000 do
    Util.Parallel.for_chunks par4 ~grain:8 ~n (fun ~chunk:_ ~lo ~hi ->
        for i = lo to hi - 1 do
          a.(i) <- a.(i) + 1
        done)
  done;
  Alcotest.(check bool) "all counted" true (Array.for_all (fun v -> v = 1000) a)

(* Sum of [0, n) through the pool: each index writes its own slot. *)
let pool_sum n =
  let a = Array.make n 0.0 in
  Util.Parallel.for_chunks par4 ~grain:1 ~n (fun ~chunk:_ ~lo ~hi ->
      for i = lo to hi - 1 do
        a.(i) <- float_of_int i
      done);
  Array.fold_left ( +. ) 0.0 a

let test_nested_dispatch_rejected () =
  Alcotest.check_raises "nested dispatch"
    (Invalid_argument
       "Util.Parallel: nested parallel dispatch (a kernel body called a parallel entry point)")
    (fun () ->
      Util.Parallel.for_chunks par4 ~grain:1 ~n:64 (fun ~chunk:_ ~lo:_ ~hi:_ ->
          ignore (pool_sum 64)));
  (* The pool must stay usable. *)
  check_float "pool alive" 4950.0 (pool_sum 100)

let test_pool_survives_exception () =
  Alcotest.check_raises "body exception propagates" (Failure "boom") (fun () ->
      Util.Parallel.for_chunks par4 ~grain:1 ~n:1000 (fun ~chunk:_ ~lo ~hi ->
          for i = lo to hi - 1 do
            if i = 977 then failwith "boom"
          done));
  check_float "pool alive after raise" 499500.0 (pool_sum 1000)

(* ---------------- chunk partition ---------------- *)

let test_every_index_once () =
  (* Every index is visited exactly once, dispatched and inline. *)
  List.iter
    (fun n ->
      List.iter
        (fun grain ->
          let hits = Array.make n 0 in
          Util.Parallel.for_chunks par4 ~grain ~n (fun ~chunk:_ ~lo ~hi ->
              for i = lo to hi - 1 do
                hits.(i) <- hits.(i) + 1
              done);
          Alcotest.(check bool)
            (Printf.sprintf "n=%d grain=%d once" n grain)
            true
            (Array.for_all (( = ) 1) hits))
        [ 1; max_int ])
    [ 0; 1; 3; 1024; 4097 ]

let test_for_chunks_partition () =
  (* The fixed partition: chunk c covers [c*per, min n ((c+1)*per))
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
    Util.Parallel.for_chunks par4 ~grain ~n (fun ~chunk ~lo ~hi ->
        (* One call per chunk, so each slot has a single writer. *)
        slots.(chunk) <- Some (chunk, lo, hi));
    List.filter_map Fun.id (Array.to_list slots)
  in
  let chunks = Alcotest.(list (triple int int int)) in
  List.iter
    (fun n ->
      Alcotest.check chunks (Printf.sprintf "n=%d dispatched" n) (expect n) (observed ~grain:1 n);
      Alcotest.check chunks (Printf.sprintf "n=%d inline" n) (expect n) (observed ~grain:max_int n))
    [ 0; 1; 2; 3; 5; 255; 256; 1025 ]

let test_domains_per_value () =
  (* Per-chunk scratch is sized by [domains]: clamped at create, fixed
     for the value's lifetime, and not moved by the default count. *)
  Alcotest.(check int) "4" 4 (Util.Parallel.domains par4);
  Alcotest.(check int) "clamped low" 1 (Util.Parallel.domains (Util.Parallel.create 0));
  Alcotest.(check int) "clamped high" 128 (Util.Parallel.domains (Util.Parallel.create 1000));
  with_domains 3 (fun () ->
      Alcotest.(check int) "default follows" 3 (Util.Parallel.domains (Util.Parallel.default ()));
      Alcotest.(check int) "created value keeps its count" 4 (Util.Parallel.domains par4))

(* The hook sees every named call with its chunk count, and only
   dispatched calls say so. *)
let test_hook_sees_named_calls () =
  let calls = ref [] in
  let par = Util.Parallel.create 2 ~instrument:(fun s -> calls := s :: !calls) in
  let body ~chunk:_ ~lo:_ ~hi:_ = () in
  Util.Parallel.for_chunks par ~grain:1 ~name:"k.big" ~n:100 body;
  Util.Parallel.for_chunks par ~grain:1000 ~name:"k.small" ~n:100 body;
  Util.Parallel.for_chunks par ~grain:1 ~n:100 body;
  let got =
    List.rev_map (fun (s : Util.Parallel.stats) -> (s.kernel, s.chunks, s.dispatched)) !calls
  in
  Alcotest.(check (list (triple string int bool)))
    "named calls" [ ("k.big", 2, true); ("k.small", 2, false) ] got

(* [Obs.Resource.parallel_hook]: every named call counts a dispatch and
   its wall time; utilization and imbalance describe the pool, so a call
   that ran inline below its grain records none. *)
let test_resource_hook () =
  let ctx = Obs.Ctx.create () in
  let par = Util.Parallel.create 2 ~instrument:(Obs.Resource.parallel_hook ctx) in
  let body ~chunk:_ ~lo:_ ~hi:_ = () in
  Util.Parallel.for_chunks par ~grain:1 ~name:"k.big" ~n:100 body;
  Util.Parallel.for_chunks par ~grain:1000 ~name:"k.small" ~n:100 body;
  let has name = Obs.Ctx.metric ctx name <> None in
  (match Obs.Ctx.metric ctx "par.dispatches" with
  | Some (Obs.Metric.Counter c) -> check_float "dispatches" 2.0 !c
  | _ -> Alcotest.fail "par.dispatches missing");
  Alcotest.(check bool) "big ms" true (has "par.k.big.ms");
  Alcotest.(check bool) "big utilization" true (has "par.k.big.utilization");
  Alcotest.(check bool) "big imbalance" true (has "par.k.big.imbalance");
  Alcotest.(check bool) "small ms" true (has "par.k.small.ms");
  Alcotest.(check bool) "no small utilization" false (has "par.k.small.utilization");
  Alcotest.(check bool) "no small imbalance" false (has "par.k.small.imbalance")

(* ---------------- kernel equivalence: 1 vs 4 domains ---------------- *)

(* [run nd] builds its owners on a counting value of [nd] domains and
   checks that [kernels] ran on it. *)
let on_domains nd kernels run =
  let par, seen = counting_par nd in
  let r = run par in
  List.iter (fun k -> check_chunks seen k nd) kernels;
  r

let test_dct_poisson_equivalence () =
  let rows = 64 and cols = 64 in
  let charge =
    Array.init (rows * cols) (fun i -> sin (0.37 *. float_of_int i) +. (0.01 *. float_of_int (i mod 13)))
  in
  let run nd =
    on_domains nd [ "dct.rows"; "dct.cols"; "poisson.filter"; "poisson.field" ] (fun par ->
        let spec = Helpers.plan_dct ~par charge ~rows ~cols in
        let p = Numerics.Poisson.create ~par ~rows ~cols in
        let psi = Numerics.Poisson.solve p charge in
        let ex, ey = Numerics.Poisson.field p charge in
        (spec, psi, ex, ey))
  in
  let s1, psi1, ex1, ey1 = run 1 in
  let s4, psi4, ex4, ey4 = run 4 in
  (* Row/column passes keep per-line arithmetic intact: bitwise equal. *)
  check_bitwise "dct bitwise" s1 s4;
  check_bitwise "poisson psi bitwise" psi1 psi4;
  check_bitwise "field ex bitwise" ex1 ex4;
  check_bitwise "field ey bitwise" ey1 ey4

let test_sta_propagation_equivalence () =
  let d = small_calibrated () in
  let run nd =
    on_domains nd [ "sta.delay.nets"; "sta.arrival.level"; "sta.required.level"; "sta.slack" ]
      (fun par ->
        let timer = Sta.Timer.create ~par d in
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
    on_domains nd [ "extract.endpoints" ] (fun par ->
        let timer = Sta.Timer.create ~par d in
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

(* ---------------- two values in one process ---------------- *)

(* Runs of one flow on one design, alternating a plain 1-domain value
   and a hooked 4-domain one, give the same bits; the hook sees its own
   runs' calls and nothing from the other value's runs, and the same
   calls every time — no state carries over from a previous run. *)
let test_two_values_one_process () =
  let d = Workloads.Suite.load ~scale:0.15 "sb1" in
  let start = Netlist.Design.snapshot d in
  let calls = ref 0 in
  let par1 = Util.Parallel.create 1 in
  let par4 =
    Util.Parallel.create 4 ~instrument:(fun (s : Util.Parallel.stats) ->
        Alcotest.(check int) (s.kernel ^ " chunks") 4 s.chunks;
        incr calls)
  in
  let run par =
    Netlist.Design.restore d start;
    let before = !calls in
    let r = Tdp.Flow.run ~par ~obs:Obs.Ctx.null (Tdp.Flow.Efficient Tdp.Config.default) d in
    let m (x : Evalkit.Metrics.t) = [| x.hpwl; x.tns; x.wns |] in
    let x, y = Netlist.Design.snapshot d in
    let floats a = Array.init (Bigarray.Array1.dim a) (Bigarray.Array1.get a) in
    (Array.concat [ m r.metrics; m r.metrics_gp; floats x; floats y ], !calls - before)
  in
  let a1, n1 = run par1 in
  let b1, m1 = run par4 in
  let a2, n2 = run par1 in
  let b2, m2 = run par4 in
  Alcotest.(check int) "1-domain runs call no hook" 0 (n1 + n2);
  Alcotest.(check bool) "4-domain run is observed" true (m1 > 0);
  Alcotest.(check int) "same calls per 4-domain run" m1 m2;
  check_bitwise "4 domains vs 1" a1 b1;
  check_bitwise "1 domain after 4" a1 a2;
  check_bitwise "4 domains again" b1 b2

(* ---------------- determinism contract ---------------- *)

(* The contract: the kernels that sum floats across cells, pins, pairs
   or bins return the 1-domain bits at 2 and at 4 domains. Each check
   below runs its kernels on a few random placements of a ~2k-cell
   design and compares every output bitwise. *)
let check_domain_invariant ?(ran = []) kernels =
  let d = Workloads.Suite.load ~scale:0.5 "sb1" in
  let open Netlist in
  let ncells = Design.num_cells d in
  List.iter
    (fun seed ->
      let rng = Util.Rng.create seed in
      for id = 0 to ncells - 1 do
        if Design.is_movable d id then begin
          d.x.{id} <- Util.Rng.float rng (Geom.Rect.width d.die) +. d.die.xl;
          d.y.{id} <- Util.Rng.float rng (Geom.Rect.height d.die) +. d.die.yl
        end
      done;
      let want = on_domains 1 ran (fun par -> kernels par d) in
      List.iter
        (fun nd ->
          List.iter2
            (fun (name, a) (_, b) -> check_bitwise (Printf.sprintf "seed %d, %s at %d domains" seed name nd) a b)
            want
            (on_domains nd ran (fun par -> kernels par d)))
        [ 2; 4 ])
    [ 3; 17; 41 ]

let movable_area d =
  let a = ref 0.0 in
  for id = 0 to Netlist.Design.num_cells d - 1 do
    if Netlist.Design.is_movable d id then a := !a +. (d.Netlist.Design.w.{id} *. d.Netlist.Design.h.{id})
  done;
  !a

let density_grid par d =
  let grid = Gp.Densitygrid.create ~par d ~bins_x:32 ~bins_y:32 in
  Gp.Densitygrid.update grid d;
  grid

(* The float sums that were chunked reductions (WA value, density
   overflow, Poisson energy) are left folds: not merely close but equal
   bit for bit. *)
let test_sums_domain_invariant () =
  check_domain_invariant ~ran:[ "wl.grad"; "wl.grad.cells"; "density.bins"; "poisson.filter" ]
    (fun par d ->
      let ncells = Netlist.Design.num_cells d in
      let gx = Array.make ncells 0.0 and gy = Array.make ncells 0.0 in
      let wl = Gp.Wirelength.wa_wirelength_grad ~par d ~gamma:2.0 ~gx ~gy in
      let grid = density_grid par d in
      let ovf = Gp.Densitygrid.overflow grid ~target_density:0.7 ~movable_area:(movable_area d) in
      let rho = Gp.Densitygrid.charge grid ~target_density:0.7 in
      let psi = Numerics.Poisson.solve (Numerics.Poisson.create ~par ~rows:32 ~cols:32) rho in
      [ ("wa value, overflow, energy", [| wl; ovf; Numerics.Poisson.energy rho psi |]) ])

let test_density_grid_equivalence () =
  check_domain_invariant ~ran:[ "density.bins" ] (fun par d ->
      let grid = density_grid par d in
      let ovf = Gp.Densitygrid.overflow grid ~target_density:1.0 ~movable_area:(movable_area d) in
      [ ("bins", Array.copy grid.Gp.Densitygrid.density); ("overflow", [| ovf |]) ])

let test_pin_attract_equivalence () =
  check_domain_invariant (fun _ d ->
      let npins = Netlist.Design.num_pins d and ncells = Netlist.Design.num_cells d in
      let t = Tdp.Pin_attract.create d ~loss:Tdp.Config.Quadratic in
      (* A deterministic pair set: momentum-fold arbitrary (i, j) pin
         pairs so the test does not depend on timing violations. *)
      for i = 0 to 1999 do
        let pi = (i * 131) mod npins and pj = ((i * 197) + 5) mod npins in
        if pi <> pj then
          Tdp.Pin_attract.update_pair_momentum t ~pin_i:pi ~pin_j:pj
            ~w_hat:(1.0 +. float_of_int (i mod 7))
            ~momentum:0.5
      done;
      let gx = Array.make ncells 0.0 and gy = Array.make ncells 0.0 in
      Tdp.Pin_attract.add_grad t ~gx ~gy;
      [ ("gx", gx); ("gy", gy) ])

(* Density binning runs over bin rows; a grid with fewer rows than
   chunks leaves some chunks empty and must still give the 1-domain
   bits. *)
let test_density_few_rows () =
  let d = Lazy.force small_generated in
  let run rows nd =
    on_domains nd [ "density.bins" ] (fun par ->
        let grid = Gp.Densitygrid.create ~par d ~bins_x:5 ~bins_y:rows in
        Gp.Densitygrid.update grid d;
        Array.copy grid.Gp.Densitygrid.density)
  in
  List.iter
    (fun rows ->
      let want = run rows 1 in
      List.iter
        (fun nd -> check_bitwise (Printf.sprintf "%d rows at %d domains" rows nd) want (run rows nd))
        [ 2; 4 ])
    [ 1; 2; 3 ]

(* The cell pass adds only a cell's own slots: a cell on no net keeps a
   [-0.0] gradient bit for bit at every domain count, where adding a
   zero from another chunk's buffer would turn it into [+0.0]. *)
let test_wa_unconnected_cell () =
  let b = Helpers.fresh_builder () in
  let pi = Netlist.Builder.add_input_pad b ~cname:"pi" ~x:0.0 ~y:50.0 in
  let u1 = Netlist.Builder.add_logic b ~cname:"u1" ~lib:Helpers.inv ~x:30.0 ~y:50.0 () in
  let u2 = Netlist.Builder.add_logic b ~cname:"u2" ~lib:Helpers.inv ~x:60.0 ~y:50.0 () in
  let n1 = Netlist.Builder.add_net b ~nname:"n1" in
  Netlist.Builder.connect_by_name b ~net:n1 ~cell:pi ~pin_name:"p";
  Netlist.Builder.connect_by_name b ~net:n1 ~cell:u1 ~pin_name:"a1";
  let d = Netlist.Builder.finish b in
  let nc = Netlist.Design.num_cells d in
  List.iter
    (fun nd ->
      on_domains nd [ "wl.grad"; "wl.grad.cells" ] (fun par ->
          let gx = Array.make nc (-0.0) and gy = Array.make nc (-0.0) in
          ignore (Gp.Wirelength.wa_wirelength_grad ~par d ~gamma:2.0 ~gx ~gy);
          check_bitwise
            (Printf.sprintf "u2 keeps -0.0 at %d domains" nd)
            [| -0.0; -0.0 |] [| gx.(u2); gy.(u2) |];
          Alcotest.(check bool) "u1 gets a gradient" true (gx.(u1) <> 0.0)))
    [ 1; 2; 4 ]

let suite =
  [
    ("pool spawns once", `Quick, test_pool_spawns_once);
    ("pool many small calls", `Quick, test_pool_many_small_calls);
    ("nested dispatch rejected", `Quick, test_nested_dispatch_rejected);
    ("pool survives exception", `Quick, test_pool_survives_exception);
    ("for_chunks visits every index once", `Quick, test_every_index_once);
    ("sum 1 vs 4 domains close", `Quick, test_sums_domain_invariant);
    ("for_chunks partition", `Quick, test_for_chunks_partition);
    ("domains fixed per value", `Quick, test_domains_per_value);
    ("density rows fewer than chunks", `Quick, test_density_few_rows);
    ("density grid 1 vs 4 domains", `Quick, test_density_grid_equivalence);
    ("dct/poisson 1 vs 4 domains", `Quick, test_dct_poisson_equivalence);
    ("sta propagation 1 vs 4 domains", `Quick, test_sta_propagation_equivalence);
    ("extraction 1 vs 4 domains", `Quick, test_extraction_equivalence);
    ("pin attraction 1 vs 4 domains", `Quick, test_pin_attract_equivalence);
    ("wa gradient leaves unconnected cells", `Quick, test_wa_unconnected_cell);
    ("two values in one process", `Quick, test_two_values_one_process);
    ("hook sees named calls", `Quick, test_hook_sees_named_calls);
    ("resource hook records dispatched calls", `Quick, test_resource_hook);
  ]
