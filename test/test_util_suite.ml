(* Unit + property tests for the util library: Rng, Dheap, Gvec, Stats,
   Tablefmt, Parallel. *)

let check_float = Alcotest.(check (float 1e-9))

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

(* ---------------- Rng ---------------- *)

let test_rng_determinism () =
  let a = Util.Rng.create 42 and b = Util.Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Util.Rng.int a 1000) (Util.Rng.int b 1000)
  done

let test_rng_seed_sensitivity () =
  let a = Util.Rng.create 1 and b = Util.Rng.create 2 in
  let xs = List.init 20 (fun _ -> Util.Rng.int a 1_000_000) in
  let ys = List.init 20 (fun _ -> Util.Rng.int b 1_000_000) in
  Alcotest.(check bool) "different streams" true (xs <> ys)

let test_rng_int_bounds () =
  let rng = Util.Rng.create 7 in
  for _ = 1 to 10_000 do
    let v = Util.Rng.int rng 17 in
    Alcotest.(check bool) "in [0,17)" true (v >= 0 && v < 17)
  done

let test_rng_float_bounds () =
  let rng = Util.Rng.create 8 in
  for _ = 1 to 10_000 do
    let v = Util.Rng.float rng 3.5 in
    Alcotest.(check bool) "in [0,3.5)" true (v >= 0.0 && v < 3.5)
  done

let test_rng_float_mean () =
  let rng = Util.Rng.create 9 in
  let n = 50_000 in
  let acc = ref 0.0 in
  for _ = 1 to n do
    acc := !acc +. Util.Rng.float rng 1.0
  done;
  let mean = !acc /. float_of_int n in
  Alcotest.(check bool) "mean ~ 0.5" true (Float.abs (mean -. 0.5) < 0.01)

let test_rng_normal_moments () =
  let rng = Util.Rng.create 10 in
  let n = 50_000 in
  let xs = Array.init n (fun _ -> Util.Rng.normal rng) in
  Alcotest.(check bool) "mean ~ 0" true (Float.abs (Util.Stats.mean xs) < 0.02);
  Alcotest.(check bool) "std ~ 1" true (Float.abs (Util.Stats.stddev xs -. 1.0) < 0.02)

let test_rng_bernoulli () =
  let rng = Util.Rng.create 11 in
  let n = 50_000 in
  let hits = ref 0 in
  for _ = 1 to n do
    if Util.Rng.bernoulli rng 0.3 then incr hits
  done;
  let freq = float_of_int !hits /. float_of_int n in
  Alcotest.(check bool) "freq ~ 0.3" true (Float.abs (freq -. 0.3) < 0.01)

let test_rng_permutation () =
  let rng = Util.Rng.create 12 in
  let p = Util.Rng.permutation rng 100 in
  let seen = Array.make 100 false in
  Array.iter (fun i -> seen.(i) <- true) p;
  Alcotest.(check bool) "is a permutation" true (Array.for_all Fun.id seen)

let test_rng_range () =
  let rng = Util.Rng.create 13 in
  for _ = 1 to 1000 do
    let v = Util.Rng.range rng 5 9 in
    Alcotest.(check bool) "in [5,9)" true (v >= 5 && v < 9)
  done

let test_rng_split_independent () =
  let a = Util.Rng.create 42 in
  let b = Util.Rng.split a in
  let xs = List.init 10 (fun _ -> Util.Rng.int a 1000) in
  let ys = List.init 10 (fun _ -> Util.Rng.int b 1000) in
  Alcotest.(check bool) "split streams differ" true (xs <> ys)

(* ---------------- Dheap ---------------- *)

let test_dheap_sorted_pop () =
  let h = Util.Dheap.create () in
  let rng = Util.Rng.create 1 in
  let keys = Array.init 500 (fun _ -> Util.Rng.float rng 100.0) in
  Array.iteri (fun i k -> Util.Dheap.push h k i) keys;
  let prev = ref Float.neg_infinity in
  while not (Util.Dheap.is_empty h) do
    let k = Util.Dheap.peek_key h in
    ignore (Util.Dheap.pop h);
    Alcotest.(check bool) "non-decreasing" true (k >= !prev);
    prev := k
  done

let test_dheap_payloads () =
  let h = Util.Dheap.create () in
  Util.Dheap.push h 3.0 30;
  Util.Dheap.push h 1.0 10;
  Util.Dheap.push h 2.0 20;
  let a = Util.Dheap.pop h in
  let b = Util.Dheap.pop h in
  let c = Util.Dheap.pop h in
  Alcotest.(check (list int)) "payload order" [ 10; 20; 30 ] [ a; b; c ];
  (* [clear] empties the heap; it is reusable afterwards. *)
  Util.Dheap.push h 4.0 40;
  Util.Dheap.clear h;
  Alcotest.(check bool) "cleared" true (Util.Dheap.is_empty h);
  Util.Dheap.push h 5.0 50;
  Alcotest.(check int) "reused" 50 (Util.Dheap.pop h)

let test_dheap_empty_raises () =
  let h = Util.Dheap.create () in
  Alcotest.check_raises "pop empty" Not_found (fun () -> ignore (Util.Dheap.pop h));
  Alcotest.check_raises "peek empty" Not_found (fun () -> ignore (Util.Dheap.peek_key h))

let test_dheap_peek () =
  let h = Util.Dheap.create () in
  Util.Dheap.push h 5.0 0;
  Util.Dheap.push h 2.0 1;
  check_float "peek is min" 2.0 (Util.Dheap.peek_key h);
  Alcotest.(check int) "length" 2 (Util.Dheap.length h)

let dheap_qcheck =
  qtest "dheap pops sorted" QCheck.(list (float_bound_inclusive 1000.0)) (fun keys ->
      let h = Util.Dheap.create () in
      List.iteri (fun i k -> Util.Dheap.push h k i) keys;
      let out = ref [] in
      while not (Util.Dheap.is_empty h) do
        out := Util.Dheap.peek_key h :: !out;
        ignore (Util.Dheap.pop h)
      done;
      List.rev !out = List.sort compare keys)

(* ---------------- Gvec ---------------- *)

let test_gvec_push_get () =
  let v = Util.Gvec.create () in
  for i = 0 to 999 do
    Util.Gvec.push v (i * 2)
  done;
  Alcotest.(check int) "length" 1000 (Util.Gvec.length v);
  Alcotest.(check int) "get 500" 1000 (Util.Gvec.get v 500)

let test_gvec_set () =
  let v = Util.Gvec.create () in
  Util.Gvec.push v 1;
  Util.Gvec.set v 0 9;
  Alcotest.(check int) "set" 9 (Util.Gvec.get v 0)

let test_gvec_bounds () =
  let v = Util.Gvec.create () in
  Util.Gvec.push v 1;
  Alcotest.check_raises "get oob" (Invalid_argument "Gvec.get: out of bounds") (fun () ->
      ignore (Util.Gvec.get v 1));
  Alcotest.check_raises "set oob" (Invalid_argument "Gvec.set: out of bounds") (fun () ->
      Util.Gvec.set v (-1) 0)

let test_gvec_to_array_clear () =
  let v = Util.Gvec.create () in
  List.iter (Util.Gvec.push v) [ 1; 2; 3 ];
  Alcotest.(check (array int)) "to_array" [| 1; 2; 3 |] (Util.Gvec.to_array v);
  Util.Gvec.clear v;
  Alcotest.(check int) "cleared" 0 (Util.Gvec.length v)

(* ---------------- Stats ---------------- *)

let test_stats_basic () =
  let a = [| 1.0; 2.0; 3.0; 4.0 |] in
  check_float "mean" 2.5 (Util.Stats.mean a);
  check_float "sum" 10.0 (Util.Stats.sum a);
  check_float "min" 1.0 (Util.Stats.min_elt a);
  check_float "max" 4.0 (Util.Stats.max_elt a);
  check_float "median" 2.5 (Util.Stats.median a);
  check_float "variance" (5.0 /. 3.0) (Util.Stats.variance a)

let test_stats_percentile () =
  let a = [| 10.0; 20.0; 30.0; 40.0; 50.0 |] in
  check_float "p0" 10.0 (Util.Stats.percentile a 0.0);
  check_float "p100" 50.0 (Util.Stats.percentile a 100.0);
  check_float "p50" 30.0 (Util.Stats.percentile a 50.0);
  check_float "p25" 20.0 (Util.Stats.percentile a 25.0)

let test_stats_geomean () =
  check_float "geomean" 2.0 (Util.Stats.geomean [| 1.0; 2.0; 4.0 |]);
  check_float "geomean single" 5.0 (Util.Stats.geomean [| 5.0 |])

let test_stats_degenerate () =
  check_float "empty mean" 0.0 (Util.Stats.mean [||]);
  check_float "single variance" 0.0 (Util.Stats.variance [| 3.0 |]);
  check_float "cv of zeros" 0.0 (Util.Stats.coeff_variation [| 0.0; 0.0 |])

let stats_percentile_qcheck =
  qtest "percentile within [min,max]"
    QCheck.(pair (list_of_size Gen.(1 -- 50) (float_bound_inclusive 100.0)) (float_bound_inclusive 100.0))
    (fun (l, p) ->
      let a = Array.of_list l in
      let v = Util.Stats.percentile a p in
      v >= Util.Stats.min_elt a -. 1e-9 && v <= Util.Stats.max_elt a +. 1e-9)

(* ---------------- Tablefmt ---------------- *)

let test_tablefmt_render () =
  let t =
    Util.Tablefmt.create ~title:"T" ~headers:[ "a"; "bb" ] ~aligns:[ Left; Right ]
  in
  Util.Tablefmt.add_row t [ "x"; "1" ];
  let s = Util.Tablefmt.render t in
  Alcotest.(check bool) "has title" true (String.length s > 0 && s.[0] = 'T');
  Alcotest.(check bool) "mentions header" true
    (String.split_on_char '\n' s |> List.exists (fun l -> String.length l >= 1 && String.trim l <> "" && String.sub (String.trim l) 0 1 = "a"))

let test_tablefmt_arity () =
  let t = Util.Tablefmt.create ~title:"T" ~headers:[ "a" ] ~aligns:[ Left ] in
  Alcotest.check_raises "arity" (Invalid_argument "Tablefmt.add_row: arity mismatch") (fun () ->
      Util.Tablefmt.add_row t [ "x"; "y" ])

let test_tablefmt_fmt_float () =
  Alcotest.(check string) "nan" "-" (Util.Tablefmt.fmt_float Float.nan);
  Alcotest.(check string) "prec" "1.50" (Util.Tablefmt.fmt_float ~prec:2 1.5)

(* ---------------- Parallel ---------------- *)

let test_parallel_for () =
  let n = 5000 in
  let a = Array.make n 0 in
  Util.Parallel.for_chunks (Util.Parallel.create 4) ~n (fun ~chunk:_ ~lo ~hi ->
      for i = lo to hi - 1 do
        a.(i) <- i
      done);
  Alcotest.(check bool) "all written" true (Array.for_all Fun.id (Array.mapi (fun i v -> v = i) a))

(* A sum in the contract's pattern: each chunk folds its own range into
   its own slot, and the caller folds the slots in chunk order. *)
let test_parallel_sum () =
  let n = 10_000 in
  let s =
    let par = Util.Parallel.create 4 in
    let slots = Array.make (Util.Parallel.domains par) 0.0 in
    Util.Parallel.for_chunks par ~grain:1 ~n (fun ~chunk ~lo ~hi ->
        for i = lo to hi - 1 do
          slots.(chunk) <- slots.(chunk) +. float_of_int i
        done);
    Array.fold_left ( +. ) 0.0 slots
  in
  check_float "gauss sum" (float_of_int (n * (n - 1) / 2)) s

let suite =
  [
    ("rng determinism", `Quick, test_rng_determinism);
    ("rng seed sensitivity", `Quick, test_rng_seed_sensitivity);
    ("rng int bounds", `Quick, test_rng_int_bounds);
    ("rng float bounds", `Quick, test_rng_float_bounds);
    ("rng float mean", `Quick, test_rng_float_mean);
    ("rng normal moments", `Quick, test_rng_normal_moments);
    ("rng bernoulli", `Quick, test_rng_bernoulli);
    ("rng permutation", `Quick, test_rng_permutation);
    ("rng range", `Quick, test_rng_range);
    ("rng split", `Quick, test_rng_split_independent);
    ("dheap sorted pops", `Quick, test_dheap_sorted_pop);
    ("dheap payload order", `Quick, test_dheap_payloads);
    ("dheap empty raises", `Quick, test_dheap_empty_raises);
    ("dheap peek/length", `Quick, test_dheap_peek);
    dheap_qcheck;
    ("gvec push/get", `Quick, test_gvec_push_get);
    ("gvec set", `Quick, test_gvec_set);
    ("gvec bounds", `Quick, test_gvec_bounds);
    ("gvec to_array/clear", `Quick, test_gvec_to_array_clear);
    ("stats basic", `Quick, test_stats_basic);
    ("stats percentile", `Quick, test_stats_percentile);
    ("stats geomean", `Quick, test_stats_geomean);
    ("stats degenerate", `Quick, test_stats_degenerate);
    stats_percentile_qcheck;
    ("tablefmt render", `Quick, test_tablefmt_render);
    ("tablefmt arity", `Quick, test_tablefmt_arity);
    ("tablefmt fmt_float", `Quick, test_tablefmt_fmt_float);
    ("parallel for", `Quick, test_parallel_for);
    ("parallel sum", `Quick, test_parallel_sum);
  ]
