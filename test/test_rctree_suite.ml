(* Tests for rctree: Steiner topologies and Elmore delay. *)

let check_float = Alcotest.(check (float 1e-9))

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

let points_gen =
  QCheck.Gen.(
    list_size (2 -- 12)
      (pair (float_bound_inclusive 100.0) (float_bound_inclusive 100.0)))

let points_arb =
  QCheck.make
    ~print:(fun l -> String.concat ";" (List.map (fun (x, y) -> Printf.sprintf "(%g,%g)" x y) l))
    points_gen

let split pts =
  let xs = Array.of_list (List.map fst pts) and ys = Array.of_list (List.map snd pts) in
  (xs, ys)

(* ---------------- Steiner ---------------- *)

let test_star_two_points () =
  let xs = [| 0.0; 3.0 |] and ys = [| 0.0; 4.0 |] in
  let t = Rctree.Steiner.star ~xs ~ys in
  Alcotest.(check int) "nodes" 2 (Rctree.Steiner.num_nodes t);
  check_float "length" 7.0 (Rctree.Steiner.total_length t)

let test_star_lengths () =
  let xs = [| 0.0; 1.0; 2.0 |] and ys = [| 0.0; 1.0; 0.0 |] in
  let t = Rctree.Steiner.star ~xs ~ys in
  check_float "star total" (2.0 +. 2.0) (Rctree.Steiner.total_length t);
  Alcotest.(check int) "root parent" (-1) t.parent.(0)

let test_steiner_two_points_is_direct () =
  let xs = [| 0.0; 10.0 |] and ys = [| 5.0; 7.0 |] in
  let t = Rctree.Steiner.steiner ~xs ~ys in
  check_float "direct length" 12.0 (Rctree.Steiner.total_length t)

let test_steiner_l_shape () =
  (* Three corners of an L: the Steiner tree should cost the HPWL, not
     the star (which revisits the trunk). *)
  let xs = [| 0.0; 10.0; 0.0 |] and ys = [| 0.0; 0.0; 10.0 |] in
  let t = Rctree.Steiner.steiner ~xs ~ys in
  check_float "L cost" 20.0 (Rctree.Steiner.total_length t);
  let star = Rctree.Steiner.star ~xs ~ys in
  check_float "star same here" 20.0 (Rctree.Steiner.total_length star)

let test_steiner_cross_saves () =
  (* Four arms of a plus sign rooted at an arm tip: a Steiner point at the
     centre beats the MST. *)
  let xs = [| 0.0; 20.0; 10.0; 10.0 |] and ys = [| 10.0; 10.0; 0.0; 20.0 |] in
  let t = Rctree.Steiner.steiner ~xs ~ys in
  let mst = Rctree.Steiner.rmst_length ~xs ~ys in
  Alcotest.(check bool) "steiner <= mst" true
    (Rctree.Steiner.total_length t <= mst +. 1e-9);
  check_float "steiner is 40" 40.0 (Rctree.Steiner.total_length t)

let test_tree_is_connected () =
  let rng = Util.Rng.create 3 in
  for _ = 1 to 20 do
    let n = 2 + Util.Rng.int rng 10 in
    let xs = Array.init n (fun _ -> Util.Rng.float rng 50.0) in
    let ys = Array.init n (fun _ -> Util.Rng.float rng 50.0) in
    let t = Rctree.Steiner.steiner ~xs ~ys in
    (* every node reaches the root by parent pointers *)
    for v = 0 to Rctree.Steiner.num_nodes t - 1 do
      let rec walk u steps =
        Alcotest.(check bool) "no cycle" true (steps < 1000);
        if t.parent.(u) >= 0 then walk t.parent.(u) (steps + 1)
      in
      walk v 0
    done;
    (* every terminal appears exactly once *)
    let seen = Array.make n 0 in
    Array.iter (fun term -> if term >= 0 then seen.(term) <- seen.(term) + 1) t.terminal;
    Alcotest.(check bool) "terminals covered once" true (Array.for_all (fun c -> c = 1) seen)
  done

let q_steiner_le_mst =
  qtest "steiner <= rmst" points_arb (fun pts ->
      let xs, ys = split pts in
      Rctree.Steiner.steiner ~xs ~ys |> Rctree.Steiner.total_length
      <= Rctree.Steiner.rmst_length ~xs ~ys +. 1e-6)

let q_steiner_ge_bbox =
  qtest "steiner >= max bbox extent" points_arb (fun pts ->
      let xs, ys = split pts in
      let w = Util.Stats.max_elt xs -. Util.Stats.min_elt xs in
      let h = Util.Stats.max_elt ys -. Util.Stats.min_elt ys in
      Rctree.Steiner.steiner ~xs ~ys |> Rctree.Steiner.total_length >= Float.max w h -. 1e-6)

let q_star_ge_steiner =
  qtest "star >= steiner" points_arb (fun pts ->
      let xs, ys = split pts in
      Rctree.Steiner.star ~xs ~ys |> Rctree.Steiner.total_length
      >= (Rctree.Steiner.steiner ~xs ~ys |> Rctree.Steiner.total_length) -. 1e-6)

(* ---------------- Elmore ---------------- *)

let test_elmore_single_wire () =
  (* driver at 0, one sink at distance 10; r=2, c=3, sink cap 5.
     delay = r*L * (c*L/2 + Cs) = 20 * (15 + 5) = 400.
     total cap = c*L + Cs = 35. *)
  let xs = [| 0.0; 10.0 |] and ys = [| 0.0; 0.0 |] in
  let t = Rctree.Steiner.star ~xs ~ys in
  let res = Rctree.Elmore.compute t ~r:2.0 ~c:3.0 ~term_cap:(fun _ -> 5.0) in
  check_float "total cap" 35.0 res.total_cap;
  check_float "delay" 400.0 (Rctree.Elmore.terminal_delay t res 1)

let test_elmore_star_two_sinks () =
  (* Two sinks at distances 10 and 20 on opposite sides; r=1, c=1,
     caps 2 each. Sink1: r*10*(c*10/2+2) = 10*7 = 70.
     Sink2: 20*(10+2) = 240. Total cap = 30 + 4 = 34. *)
  let xs = [| 0.0; 10.0; -20.0 |] and ys = [| 0.0; 0.0; 0.0 |] in
  let t = Rctree.Steiner.star ~xs ~ys in
  let res = Rctree.Elmore.compute t ~r:1.0 ~c:1.0 ~term_cap:(fun _ -> 2.0) in
  check_float "cap" 34.0 res.total_cap;
  check_float "near sink" 70.0 (Rctree.Elmore.terminal_delay t res 1);
  check_float "far sink" 240.0 (Rctree.Elmore.terminal_delay t res 2)

let test_elmore_chain_through_steiner () =
  (* Collinear root-mid-far: steiner builds a chain; the far sink's delay
     includes the mid segment's resistance times everything downstream. *)
  let xs = [| 0.0; 10.0; 20.0 |] and ys = [| 0.0; 0.0; 0.0 |] in
  let t = Rctree.Steiner.steiner ~xs ~ys in
  check_float "chain length" 20.0 (Rctree.Steiner.total_length t);
  let res = Rctree.Elmore.compute t ~r:1.0 ~c:1.0 ~term_cap:(fun _ -> 0.0) in
  (* seg1 (0..10): r=10, downstream cap = 10(seg1/2=5... ) exact:
     delay(mid) = 10*(5 + 10) = 150 (downstream of seg1: seg2 cap 10)
     delay(far) = 150 + 10*(5+0) = 200. *)
  check_float "mid" 150.0 (Rctree.Elmore.terminal_delay t res 1);
  check_float "far" 200.0 (Rctree.Elmore.terminal_delay t res 2)

let test_elmore_monotone_in_distance () =
  let rng = Util.Rng.create 5 in
  for _ = 1 to 50 do
    let d1 = 1.0 +. Util.Rng.float rng 50.0 in
    let d2 = d1 +. 1.0 +. Util.Rng.float rng 50.0 in
    let delay d =
      let xs = [| 0.0; d |] and ys = [| 0.0; 0.0 |] in
      let t = Rctree.Steiner.star ~xs ~ys in
      let res = Rctree.Elmore.compute t ~r:0.5 ~c:0.7 ~term_cap:(fun _ -> 1.0) in
      Rctree.Elmore.terminal_delay t res 1
    in
    Alcotest.(check bool) "longer wire slower" true (delay d2 > delay d1)
  done

let test_elmore_quadratic_growth () =
  (* With zero sink cap, doubling the wire length quadruples the delay —
     the quadratic property motivating the paper's loss (Eq. 7/8). *)
  let delay d =
    let xs = [| 0.0; d |] and ys = [| 0.0; 0.0 |] in
    let t = Rctree.Steiner.star ~xs ~ys in
    let res = Rctree.Elmore.compute t ~r:1.0 ~c:1.0 ~term_cap:(fun _ -> 0.0) in
    Rctree.Elmore.terminal_delay t res 1
  in
  check_float "4x" 4.0 (delay 20.0 /. delay 10.0)

let q_elmore_caps =
  qtest "total cap = wirecap + sink caps" points_arb (fun pts ->
      let xs, ys = split pts in
      let t = Rctree.Steiner.steiner ~xs ~ys in
      let res = Rctree.Elmore.compute t ~r:1.0 ~c:2.0 ~term_cap:(fun _ -> 3.0) in
      let expected =
        (2.0 *. Rctree.Steiner.total_length t) +. (3.0 *. float_of_int (Array.length xs - 1))
      in
      Float.abs (res.total_cap -. expected) < 1e-6 *. (1.0 +. expected))

let q_elmore_nonneg =
  qtest "delays nonnegative" points_arb (fun pts ->
      let xs, ys = split pts in
      let t = Rctree.Steiner.steiner ~xs ~ys in
      let res = Rctree.Elmore.compute t ~r:1.0 ~c:1.0 ~term_cap:(fun _ -> 1.0) in
      Array.for_all (fun d -> d >= -1e-9) res.sink_delay)

let suite =
  [
    ("star two points", `Quick, test_star_two_points);
    ("star lengths", `Quick, test_star_lengths);
    ("steiner two points direct", `Quick, test_steiner_two_points_is_direct);
    ("steiner L shape", `Quick, test_steiner_l_shape);
    ("steiner cross uses steiner point", `Quick, test_steiner_cross_saves);
    ("tree connected, terminals once", `Quick, test_tree_is_connected);
    q_steiner_le_mst;
    q_steiner_ge_bbox;
    q_star_ge_steiner;
    ("elmore single wire", `Quick, test_elmore_single_wire);
    ("elmore two-sink star", `Quick, test_elmore_star_two_sinks);
    ("elmore chain", `Quick, test_elmore_chain_through_steiner);
    ("elmore monotone", `Quick, test_elmore_monotone_in_distance);
    ("elmore quadratic", `Quick, test_elmore_quadratic_growth);
    q_elmore_caps;
    q_elmore_nonneg;
  ]

(* The committed tie fixture (test/fixtures/steiner_trees, written by
   test/gen_steiner_fixture.ml) pins [steiner]'s exact trees — node
   order, tie-breaking and the bits of every coordinate — on terminal
   sets full of ties: duplicates, collinear runs, integer grids and
   signed zeros. It also pins the bits of [Elmore.compute] over each
   tree (r = 0.37, c = 0.21, as the generator uses), i.e. the kernel's
   summation order. *)
let fixture_path rel =
  if Sys.file_exists rel then rel
  else
    let alt = Filename.concat "test" rel in
    if Sys.file_exists alt then alt
    else Alcotest.failf "fixture %s not found (run from the repo root or via dune runtest)" rel

let test_steiner_tie_fixture () =
  let ic = open_in (fixture_path "fixtures/steiner_trees") in
  let fields tag =
    match String.split_on_char ' ' (input_line ic) with
    | t :: rest when t = tag -> Array.of_list rest
    | _ -> Alcotest.failf "steiner fixture: expected a %s line" tag
  in
  let floats tag = Array.map float_of_string (fields tag) in
  let ints tag = Array.map int_of_string (fields tag) in
  let bits a = Array.map Int64.bits_of_float a in
  let cases = ref 0 in
  (try
     while true do
       let line = input_line ic in
       if String.length line > 0 && line.[0] <> '#' then begin
         let k, n, m = Scanf.sscanf line "case %d %d %d" (fun k n m -> (k, n, m)) in
         let xs = floats "in_x" in
         let ys = floats "in_y" in
         let caps = floats "in_cap" in
         Alcotest.(check int) "terminal count" n (Array.length xs);
         let t = Rctree.Steiner.steiner ~xs ~ys in
         let what f = Printf.sprintf "case %d %s" k f in
         Alcotest.(check int) (what "nodes") m (Rctree.Steiner.num_nodes t);
         Alcotest.(check (array int)) (what "parent") (ints "parent") t.parent;
         Alcotest.(check (array int)) (what "terminal") (ints "terminal") t.terminal;
         Alcotest.(check (array int64)) (what "xs") (bits (floats "xs")) (bits t.xs);
         Alcotest.(check (array int64)) (what "ys") (bits (floats "ys")) (bits t.ys);
         Alcotest.(check (array int64))
           (what "edge_len")
           (bits (floats "edge_len"))
           (bits t.edge_len);
         let e = Rctree.Elmore.compute t ~r:0.37 ~c:0.21 ~term_cap:(fun i -> caps.(i)) in
         Alcotest.(check (array int64))
           (what "total_cap, total_wirelen")
           (bits (floats "elmore"))
           (bits [| e.total_cap; e.total_wirelen |]);
         Alcotest.(check (array int64)) (what "delay") (bits (floats "delay")) (bits e.sink_delay);
         incr cases
       end
     done
   with End_of_file -> close_in ic);
  Alcotest.(check bool) (Printf.sprintf "%d fixture cases" !cases) true (!cases >= 200)

let suite = suite @ [ ("steiner matches tie fixture", `Quick, test_steiner_tie_fixture) ]
