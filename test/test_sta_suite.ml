(* Tests for the static timing engine: graph construction, delay model
   (hand-computed oracles), propagation, slack/TNS/WNS, and both path
   extraction commands. *)

open Netlist

let check_float = Alcotest.(check (float 1e-6))

(* Hand-computed arrivals for Helpers.chain_design (see the derivation in
   the commit history of this test): r=0.1 c=0.2, clock 500. *)
let chain_ff_d_arrival = 136.004465

let chain_po_arrival = 160.443425

let test_graph_shape () =
  let d = Helpers.chain_design () in
  let g = Sta.Graph.build d in
  (* net arcs: 4 nets with 1 sink each; cell arcs: u1, u2 (1 in x 1 out);
     FF contributes no internal arc. *)
  Alcotest.(check int) "arcs" 6 g.Sta.Graph.num_arcs;
  Alcotest.(check int) "endpoints" 2 (Array.length g.Sta.Graph.endpoints);
  let n_start = Array.fold_left (fun a b -> if b then a + 1 else a) 0 g.Sta.Graph.is_startpoint in
  Alcotest.(check int) "startpoints (pi, ff.q)" 2 n_start

let test_topo_order () =
  let d = Lazy.force Helpers.small_generated in
  let g = Sta.Graph.build d in
  let pos = Array.make (Sta.Graph.num_pins g) 0 in
  Array.iteri (fun i p -> pos.(p) <- i) g.Sta.Graph.topo;
  for a = 0 to g.Sta.Graph.num_arcs - 1 do
    Alcotest.(check bool) "from before to" true (pos.(g.Sta.Graph.arc_from.(a)) < pos.(g.Sta.Graph.arc_to.(a)))
  done

let test_combinational_loop_detected () =
  let b = Helpers.fresh_builder () in
  let u1 = Builder.add_logic b ~cname:"u1" ~lib:Helpers.inv ~x:10.0 ~y:10.0 () in
  let u2 = Builder.add_logic b ~cname:"u2" ~lib:Helpers.inv ~x:20.0 ~y:10.0 () in
  let n1 = Builder.add_net b ~nname:"n1" in
  Builder.connect_by_name b ~net:n1 ~cell:u1 ~pin_name:"o";
  Builder.connect_by_name b ~net:n1 ~cell:u2 ~pin_name:"a1";
  let n2 = Builder.add_net b ~nname:"n2" in
  Builder.connect_by_name b ~net:n2 ~cell:u2 ~pin_name:"o";
  Builder.connect_by_name b ~net:n2 ~cell:u1 ~pin_name:"a1";
  let d = Builder.finish b in
  Alcotest.check_raises "loop" Sta.Graph.Combinational_loop (fun () ->
      ignore (Sta.Graph.build d))

let test_chain_arrivals_exact () =
  let d = Helpers.chain_design () in
  let timer = Sta.Timer.create d in
  Sta.Timer.update timer;
  let g = Sta.Timer.graph timer in
  let arr = Sta.Timer.arrivals timer in
  (* ff.d is the input pin of cell 2 (the DFF). *)
  let dpin =
    Array.to_list (Design.cell_pins d 2) |> List.find (fun p -> Design.pin_name d p = "d")
  in
  check_float "ff.d arrival" chain_ff_d_arrival arr.(dpin);
  let po_pin = (Design.cell_pins d 4).(0) in
  check_float "po arrival" chain_po_arrival arr.(po_pin);
  (* Slacks: req(ff.d) = 500 - 25, req(po) = 500. *)
  check_float "ff.d slack" (475.0 -. chain_ff_d_arrival) (Sta.Timer.endpoint_slack timer dpin);
  check_float "po slack" (500.0 -. chain_po_arrival) (Sta.Timer.endpoint_slack timer po_pin);
  ignore g

let test_chain_no_violation () =
  let d = Helpers.chain_design () in
  let timer = Sta.Timer.create d in
  Sta.Timer.update timer;
  check_float "wns 0" 0.0 (Sta.Timer.wns timer);
  check_float "tns 0" 0.0 (Sta.Timer.tns timer);
  Alcotest.(check int) "no failing" 0 (Sta.Timer.num_failing_endpoints timer)

let test_chain_violation_with_tight_clock () =
  let d = Helpers.chain_design () in
  d.clock_period <- 150.0;
  let timer = Sta.Timer.create d in
  Sta.Timer.update timer;
  (* req(ff.d) = 125 < arr 136.004; req(po) = 150 < 160.443. *)
  Alcotest.(check int) "both fail" 2 (Sta.Timer.num_failing_endpoints timer);
  check_float "wns" (125.0 -. chain_ff_d_arrival) (Sta.Timer.wns timer);
  check_float "tns"
    ((125.0 -. chain_ff_d_arrival) +. (150.0 -. chain_po_arrival))
    (Sta.Timer.tns timer)

let test_timing_moves_with_placement () =
  let d = Helpers.chain_design () in
  let timer = Sta.Timer.create d in
  Sta.Timer.update timer;
  let dpin =
    Array.to_list (Design.cell_pins d 2) |> List.find (fun p -> Design.pin_name d p = "d")
  in
  let arr0 = (Sta.Timer.arrivals timer).(dpin) in
  (* Pull u1 next to the FF: the d arrival must improve. *)
  d.x.{1} <- 55.0;
  Sta.Timer.invalidate timer;
  Sta.Timer.update timer;
  let arr1 = (Sta.Timer.arrivals timer).(dpin) in
  Alcotest.(check bool) "arrival moved" true (arr1 <> arr0)

let test_diamond_worst_branch () =
  let d = Helpers.diamond_design () in
  let timer = Sta.Timer.create d in
  Sta.Timer.update timer;
  match Sta.Timer.critical_path timer with
  | None -> Alcotest.fail "no path"
  | Some p ->
      (* The far branch (ub at y=95) must be the critical one. *)
      let names =
        Array.to_list p.pins |> List.map (fun pid -> Design.cell_name d d.pin_owner.(pid))
      in
      Alcotest.(check bool) "goes through ub" true (List.mem "ub" names);
      Alcotest.(check bool) "valid" true (Sta.Paths.is_valid (Sta.Timer.graph timer) p)

let test_diamond_k_worst () =
  let d = Helpers.diamond_design () in
  let timer = Sta.Timer.create d in
  Sta.Timer.update timer;
  let g = Sta.Timer.graph timer in
  let ep = g.Sta.Graph.endpoints.(0) in
  let paths = Sta.Timer.k_worst timer ~endpoint:ep ~k:5 in
  (* Exactly two distinct pi->po paths exist. *)
  Alcotest.(check int) "two paths" 2 (List.length paths);
  (match paths with
  | [ p1; p2 ] ->
      Alcotest.(check bool) "sorted worst first" true (p1.arrival >= p2.arrival);
      Alcotest.(check bool) "distinct" true (p1.pins <> p2.pins);
      List.iter
        (fun (p : Sta.Paths.path) ->
          Alcotest.(check bool) "valid" true (Sta.Paths.is_valid g p))
        paths
  | _ -> Alcotest.fail "expected 2");
  (* k=1 returns the worst one, equal to critical_path. *)
  match Sta.Timer.k_worst timer ~endpoint:ep ~k:1 with
  | [ p ] -> check_float "worst = arr at endpoint" (Sta.Timer.arrivals timer).(ep) p.arrival
  | _ -> Alcotest.fail "expected 1"

let with_generated_timer f =
  let d = Lazy.force Helpers.small_generated in
  (* Spread cells a bit so distances are nontrivial (deterministic). *)
  let rng = Util.Rng.create 5 in
  for id = 0 to Design.num_cells d - 1 do
    if Design.is_movable d id then begin
      d.x.{id} <- Util.Rng.float rng (Geom.Rect.width d.die);
      d.y.{id} <- Util.Rng.float rng (Geom.Rect.height d.die)
    end
  done;
  Design.clamp_movable d;
  d.clock_period <- 400.0;
  let timer = Sta.Timer.create d in
  Sta.Timer.update timer;
  f d timer

let test_generated_paths_valid () =
  with_generated_timer (fun _d timer ->
      let g = Sta.Timer.graph timer in
      let arr = Sta.Timer.arrivals timer in
      Array.iter
        (fun ep ->
          if Float.is_finite arr.(ep) then begin
            let paths = Sta.Timer.k_worst timer ~endpoint:ep ~k:4 in
            Alcotest.(check bool) "at least one" true (List.length paths >= 1);
            let prev = ref Float.infinity in
            List.iter
              (fun (p : Sta.Paths.path) ->
                Alcotest.(check bool) "valid" true (Sta.Paths.is_valid g p);
                Alcotest.(check bool) "sorted" true (p.arrival <= !prev +. 1e-9);
                prev := p.arrival)
              paths;
            (* worst path arrival equals the endpoint's propagated arrival *)
            match paths with
            | p :: _ ->
                Alcotest.(check bool) "worst = arr" true (Float.abs (p.arrival -. arr.(ep)) < 1e-6)
            | [] -> ()
          end)
        g.Sta.Graph.endpoints)

let test_generated_wns_tns_consistent () =
  with_generated_timer (fun _d timer ->
      let g = Sta.Timer.graph timer in
      let slacks =
        Array.to_list g.Sta.Graph.endpoints
        |> List.map (fun e -> Sta.Timer.endpoint_slack timer e)
        |> List.filter Float.is_finite
      in
      let wns = List.fold_left Float.min 0.0 slacks in
      let tns = List.fold_left (fun acc s -> if s < 0.0 then acc +. s else acc) 0.0 slacks in
      check_float "wns" wns (Sta.Timer.wns timer);
      check_float "tns" tns (Sta.Timer.tns timer);
      Alcotest.(check bool) "wns >= tns" true (Sta.Timer.wns timer >= Sta.Timer.tns timer))

let test_failing_endpoints_sorted () =
  with_generated_timer (fun _d timer ->
      let failing = Sta.Timer.failing_endpoints timer in
      let slacks = List.map (fun e -> Sta.Timer.endpoint_slack timer e) failing in
      Alcotest.(check bool) "all negative" true (List.for_all (fun s -> s < 0.0) slacks);
      let rec sorted = function
        | a :: (b :: _ as rest) -> a <= b +. 1e-12 && sorted rest
        | _ -> true
      in
      Alcotest.(check bool) "worst first" true (sorted slacks))

let test_report_timing_endpoint_coverage () =
  with_generated_timer (fun _d timer ->
      let n = Sta.Timer.num_failing_endpoints timer in
      if n > 0 then begin
        let paths = Sta.Timer.report_timing_endpoint timer ~n ~k:1 in
        Alcotest.(check int) "n paths" n (List.length paths);
        let eps = List.sort_uniq compare (List.map (fun (p : Sta.Paths.path) -> p.endpoint) paths) in
        Alcotest.(check int) "full endpoint coverage" n (List.length eps)
      end)

let test_report_timing_global_topn () =
  with_generated_timer (fun _d timer ->
      let n = Sta.Timer.num_failing_endpoints timer in
      if n > 1 then begin
        let paths = Sta.Timer.report_timing timer ~n in
        Alcotest.(check int) "n paths returned" n (List.length paths);
        (* globally sorted by slack, worst first *)
        let rec sorted = function
          | (a : Sta.Paths.path) :: (b :: _ as rest) -> a.slack <= b.slack +. 1e-9 && sorted rest
          | _ -> true
        in
        Alcotest.(check bool) "sorted" true (sorted paths);
        (* the single worst path overall must be first *)
        let wns = Sta.Timer.wns timer in
        match paths with
        | p :: _ -> Alcotest.(check bool) "head is wns path" true (Float.abs (p.slack -. wns) < 1e-6)
        | [] -> ()
      end)

let test_report_stats () =
  with_generated_timer (fun _d timer ->
      let n = Sta.Timer.num_failing_endpoints timer in
      if n > 0 then begin
        let paths = Sta.Timer.report_timing_endpoint timer ~n ~k:2 in
        let s = Sta.Timer.stats_of_paths timer paths ~elapsed:0.5 in
        Alcotest.(check int) "paths counted" (List.length paths) s.Sta.Report.num_paths;
        Alcotest.(check bool) "endpoints <= n" true (s.Sta.Report.num_endpoints <= n);
        Alcotest.(check bool) "pairs > 0" true (s.Sta.Report.num_pin_pairs > 0);
        check_float "elapsed" 0.5 s.Sta.Report.elapsed
      end)

let test_invalidate_refresh () =
  let d = Helpers.chain_design () in
  let timer = Sta.Timer.create d in
  let tns0 = Sta.Timer.tns timer in
  (* ensure implicit update happened *)
  check_float "tns idempotent" tns0 (Sta.Timer.tns timer);
  d.clock_period <- 100.0;
  (* required times are baked into the graph at build; a new timer sees
     the new constraint *)
  let timer2 = Sta.Timer.create d in
  Alcotest.(check bool) "tighter clock fails" true (Sta.Timer.tns timer2 < 0.0)

let test_star_vs_steiner_topology () =
  with_generated_timer (fun d _ ->
      let t_star = Sta.Timer.create ~topology:Sta.Delay.Star d in
      let t_st = Sta.Timer.create ~topology:Sta.Delay.Steiner_tree d in
      Sta.Timer.update t_star;
      Sta.Timer.update t_st;
      (* Steiner trees are never longer than stars, so Steiner arrival at
         any endpoint cannot exceed... (not strictly true for delays, but
         TNS should not be dramatically worse; here we just check both
         run and produce finite, same-sign summaries) *)
      Alcotest.(check bool) "both finite" true
        (Float.is_finite (Sta.Timer.tns t_star) && Float.is_finite (Sta.Timer.tns t_st));
      Alcotest.(check bool) "star at least as pessimistic in total" true
        (Sta.Timer.tns t_star <= Sta.Timer.tns t_st +. 1e-6))

let test_incremental_equals_full () =
  with_generated_timer (fun d timer ->
      (* Move a handful of cells, re-time incrementally, compare against a
         fresh full timer: arrivals/slacks must agree exactly. *)
      let rng = Util.Rng.create 77 in
      let moved = ref [] in
      for _ = 1 to 8 do
        let id = Util.Rng.int rng (Design.num_cells d) in
        if Design.is_movable d id then begin
          d.x.{id} <- Util.Rng.float rng (Geom.Rect.width d.die);
          d.y.{id} <- Util.Rng.float rng (Geom.Rect.height d.die);
          moved := id :: !moved
        end
      done;
      Design.clamp_movable d;
      Sta.Timer.update_moved timer ~cells:!moved;
      let fresh = Sta.Timer.create d in
      Sta.Timer.update fresh;
      let arr_inc = Sta.Timer.arrivals timer and arr_full = Sta.Timer.arrivals fresh in
      let bad = ref 0 in
      Array.iteri
        (fun i v ->
          let w = arr_full.(i) in
          let same =
            (Float.is_finite v && Float.is_finite w && Float.abs (v -. w) < 1e-9)
            || v = w (* covers the +-inf cases *)
          in
          if not same then incr bad)
        arr_inc;
      Alcotest.(check int) "arrivals identical" 0 !bad;
      check_float "tns identical" (Sta.Timer.tns fresh) (Sta.Timer.tns timer);
      check_float "wns identical" (Sta.Timer.wns fresh) (Sta.Timer.wns timer))

let test_incremental_noop_move () =
  with_generated_timer (fun _d timer ->
      let tns0 = Sta.Timer.tns timer in
      Sta.Timer.update_moved timer ~cells:[];
      check_float "empty move set is a no-op" tns0 (Sta.Timer.tns timer))

(* Three pi -> inv -> po chains and an unconnected output pad, every arc
   100 ps against a 100 ps clock. Chain [nan] gets a NaN net arc, chain
   [inf] an infinite cell arc (arrival +inf); together with the
   unconnected pad their slacks are +inf, so only chain [ok] counts in
   WNS, TNS and the failing list. The +inf arrival is the case only the
   slack pass's filter catches: the WNS/TNS/failing folds do not test
   finiteness. *)
let test_nonfinite_slacks_excluded () =
  let b = Helpers.fresh_builder ~clock_period:100.0 () in
  let chain name y =
    let pi = Builder.add_input_pad b ~cname:("pi_" ^ name) ~x:0.0 ~y in
    let u = Builder.add_logic b ~cname:("u_" ^ name) ~lib:Helpers.inv ~x:50.0 ~y () in
    let po = Builder.add_output_pad b ~cname:("po_" ^ name) ~x:100.0 ~y in
    let wire c1 p1 c2 p2 =
      let n = Builder.add_net b ~nname:(Printf.sprintf "%s_%s" name p1) in
      Builder.connect_by_name b ~net:n ~cell:c1 ~pin_name:p1;
      Builder.connect_by_name b ~net:n ~cell:c2 ~pin_name:p2
    in
    wire pi "p" u "a1";
    wire u "o" po "p";
    (pi, u, po)
  in
  let ok = chain "ok" 20.0 and nan = chain "nan" 40.0 and inf = chain "inf" 60.0 in
  let lone = Builder.add_output_pad b ~cname:"po_lone" ~x:100.0 ~y:80.0 in
  let d = Builder.finish b in
  let g = Sta.Graph.build d in
  let pin c = (Design.cell_pins d c).(0) in
  let out_pin c =
    Array.to_list (Design.cell_pins d c) |> List.find (fun p -> Design.pin_name d p = "o")
  in
  let arc_into p ~net =
    let rec find a = if g.arc_to.(a) = p && g.arc_is_net.(a) = net then a else find (a + 1) in
    find 0
  in
  Array.fill g.arc_delay 0 g.num_arcs 100.0;
  let _, _, nan_po = nan and _, inf_u, _ = inf in
  g.arc_delay.(arc_into (pin nan_po) ~net:true) <- Float.nan;
  g.arc_delay.(arc_into (out_pin inf_u) ~net:false) <- Float.infinity;
  let prop = Sta.Propagate.create g in
  Sta.Propagate.update prop g;
  let slack c = Sta.Propagate.endpoint_slack prop g (pin c) in
  let third (_, _, po) = po in
  let ok_pi, _, ok_po = ok in
  let expect = g.end_required.(pin ok_po) -. (g.start_arrival.(pin ok_pi) +. 300.0) in
  Alcotest.(check bool) "ok chain fails" true (expect < 0.0);
  check_float "ok slack" expect (slack ok_po);
  List.iter
    (fun (what, c) -> Alcotest.(check (float 0.0)) what Float.infinity (slack c))
    [ ("nan arc slack", third nan); ("inf arc slack", third inf); ("unreachable slack", lone) ];
  check_float "wns" expect (Sta.Propagate.wns prop g);
  check_float "tns" expect (Sta.Propagate.tns prop g);
  Alcotest.(check (list int)) "failing" [ pin ok_po ] (Sta.Propagate.failing_endpoints prop g)

let suite =
  [
    ("graph shape", `Quick, test_graph_shape);
    ("incremental == full re-time", `Quick, test_incremental_equals_full);
    ("incremental no-op", `Quick, test_incremental_noop_move);
    ("topological order", `Quick, test_topo_order);
    ("combinational loop detected", `Quick, test_combinational_loop_detected);
    ("chain arrivals exact", `Quick, test_chain_arrivals_exact);
    ("chain no violation", `Quick, test_chain_no_violation);
    ("chain violation tight clock", `Quick, test_chain_violation_with_tight_clock);
    ("timing moves with placement", `Quick, test_timing_moves_with_placement);
    ("diamond worst branch", `Quick, test_diamond_worst_branch);
    ("diamond k-worst", `Quick, test_diamond_k_worst);
    ("generated paths valid", `Quick, test_generated_paths_valid);
    ("generated wns/tns consistent", `Quick, test_generated_wns_tns_consistent);
    ("failing endpoints sorted", `Quick, test_failing_endpoints_sorted);
    ("report_timing_endpoint coverage", `Quick, test_report_timing_endpoint_coverage);
    ("report_timing global top-n", `Quick, test_report_timing_global_topn);
    ("report stats", `Quick, test_report_stats);
    ("timer refresh semantics", `Quick, test_invalidate_refresh);
    ("star vs steiner topology", `Quick, test_star_vs_steiner_topology);
    ("non-finite slacks excluded", `Quick, test_nonfinite_slacks_excluded);
  ]

(* One full delay pass on a fresh graph; every array it writes, as bits. *)
let delay_bits d topology =
  let g = Sta.Graph.build d in
  let dl = Sta.Delay.create g ~topology in
  Sta.Delay.update dl;
  let bits a = Array.map Int64.bits_of_float a in
  ( bits g.Sta.Graph.arc_delay,
    bits dl.Sta.Delay.slew,
    bits dl.Sta.Delay.net_cap,
    bits dl.Sta.Delay.net_wirelen )

let topology_name = function Sta.Delay.Star -> "star" | Sta.Delay.Steiner_tree -> "steiner"

(* The parallel delay kernel must agree bit for bit with the sequential
   one: arc delays, slews, net caps and wirelengths at 1, 2 and 4
   domains, for both topologies. Each chunk reuses its own tree
   workspace, so this also catches state leaking between nets. *)
let test_parallel_delay_equivalence () =
  with_generated_timer (fun d _timer ->
      List.iter
        (fun topology ->
          let arc1, slew1, cap1, wl1 = Helpers.with_domains 1 (fun () -> delay_bits d topology) in
          List.iter
            (fun nd ->
              let arc, slew, cap, wl = Helpers.with_domains nd (fun () -> delay_bits d topology) in
              let what f = Printf.sprintf "%s %s @%d domains" (topology_name topology) f nd in
              Alcotest.(check (array int64)) (what "arc_delay") arc1 arc;
              Alcotest.(check (array int64)) (what "slew") slew1 slew;
              Alcotest.(check (array int64)) (what "net_cap") cap1 cap;
              Alcotest.(check (array int64)) (what "net_wirelen") wl1 wl)
            [ 2; 4 ])
        [ Sta.Delay.Star; Sta.Delay.Steiner_tree ])

(* The reused per-chunk workspaces against a fresh tree per net: the
   allocating [Steiner]/[Elmore] wrappers must give the same net caps,
   wirelengths and net-arc delays, bit for bit. *)
let test_delay_matches_fresh_trees () =
  with_generated_timer (fun d _timer ->
      List.iter
        (fun topology ->
          let g = Sta.Graph.build d in
          let dl = Sta.Delay.create g ~topology in
          Sta.Delay.update dl;
          let arc = ref 0 in
          for nid = 0 to Design.num_nets d - 1 do
            let pins = Design.net_pins d nid in
            let xs = Array.map (Design.pin_x d) pins and ys = Array.map (Design.pin_y d) pins in
            let tree =
              match topology with
              | Sta.Delay.Star -> Rctree.Steiner.star ~xs ~ys
              | Sta.Delay.Steiner_tree -> Rctree.Steiner.steiner ~xs ~ys
            in
            let res =
              Rctree.Elmore.compute tree ~r:d.r_per_unit ~c:d.c_per_unit ~term_cap:(fun k ->
                  d.pin_cap.{pins.(k)})
            in
            let what f = Printf.sprintf "%s net %d %s" (topology_name topology) nid f in
            let same f a b =
              Alcotest.(check int64) (what f) (Int64.bits_of_float a) (Int64.bits_of_float b)
            in
            same "net_cap" res.total_cap dl.net_cap.(nid);
            same "net_wirelen" res.total_wirelen dl.net_wirelen.(nid);
            let drive_res, _, _ = Sta.Delay.driver_params d pins.(0) in
            for k = 1 to Array.length pins - 1 do
              let wire_d = Rctree.Elmore.terminal_delay tree res k in
              same "arc_delay" ((drive_res *. res.total_cap) +. wire_d) g.arc_delay.(!arc);
              incr arc
            done
          done)
        [ Sta.Delay.Star; Sta.Delay.Steiner_tree ])

(* Steady-state [Delay.update] must not allocate per net: after one
   warm-up pass has grown the tree workspaces, a full re-time of sb1
   stays under 16 minor words per net. *)
let test_delay_update_alloc () =
  Helpers.with_domains 1 (fun () ->
      let d = Workloads.Suite.load ~scale:0.5 ~calibrate:false "sb1" in
      let g = Sta.Graph.build d in
      let nnets = float_of_int (Design.num_nets d) in
      List.iter
        (fun topology ->
          let dl = Sta.Delay.create g ~topology in
          Sta.Delay.update dl;
          let iters = 5 in
          let w0 = Gc.minor_words () in
          for _ = 1 to iters do
            Sta.Delay.update dl
          done;
          let per_net = (Gc.minor_words () -. w0) /. (float_of_int iters *. nnets) in
          Alcotest.(check bool)
            (Printf.sprintf "%s: minor words/net = %.2f (want < 16)" (topology_name topology)
               per_net)
            true (per_net < 16.0))
        [ Sta.Delay.Star; Sta.Delay.Steiner_tree ])

(* A warm [report_timing_endpoint] allocates little beyond the paths it
   returns: the endpoint ranking is kept until the next re-time and the
   searches reuse the timer's workspaces. After one warm-up call, a
   repeat call stays within 4x the words of its paths, counted as pins +
   arcs + 8 words per path. *)
let test_warm_query_alloc () =
  Helpers.with_domains 1 (fun () ->
      with_generated_timer (fun _d timer ->
          Alcotest.(check bool) "10 failing endpoints" true
            (Sta.Timer.num_failing_endpoints timer >= 10);
          let query () = Sta.Timer.report_timing_endpoint timer ~n:10 ~k:2 in
          ignore (query ());
          let w0 = Gc.minor_words () in
          let paths = query () in
          let words = Gc.minor_words () -. w0 in
          let path_words =
            List.fold_left
              (fun acc (p : Sta.Paths.path) ->
                acc + Array.length p.pins + Array.length p.arcs + 8)
              0 paths
          in
          Alcotest.(check bool)
            (Printf.sprintf "minor words %.0f for %d path words (want <= 4x)" words path_words)
            true
            (words <= 4.0 *. float_of_int path_words)))

let suite =
  suite
  @ [
      ("parallel delay kernel", `Quick, test_parallel_delay_equivalence);
      ("delay == fresh tree per net", `Quick, test_delay_matches_fresh_trees);
      ("delay update allocation-free", `Quick, test_delay_update_alloc);
      ("warm query allocation", `Quick, test_warm_query_alloc);
    ]
