(* Additional cross-cutting properties: monotonicity and consistency laws
   that tie modules together. *)

open Netlist

let check_float = Alcotest.(check (float 1e-6))

let spread (d : Design.t) seed =
  let rng = Util.Rng.create seed in
  for id = 0 to Design.num_cells d - 1 do
    if Design.is_movable d id then begin
      d.x.{id} <- Util.Rng.float rng (Geom.Rect.width d.die);
      d.y.{id} <- Util.Rng.float rng (Geom.Rect.height d.die)
    end
  done;
  Design.clamp_movable d

(* k_worst paths: counts monotone in k, all distinct, slacks sorted. *)
let test_k_worst_monotone () =
  let d = Lazy.force Helpers.small_generated in
  spread d 41;
  d.clock_period <- 400.0;
  let timer = Sta.Timer.create d in
  Sta.Timer.update timer;
  let g = Sta.Timer.graph timer in
  let arr = Sta.Timer.arrivals timer in
  Array.iter
    (fun ep ->
      if Float.is_finite arr.(ep) then begin
        let p2 = Sta.Timer.k_worst timer ~endpoint:ep ~k:2 in
        let p5 = Sta.Timer.k_worst timer ~endpoint:ep ~k:5 in
        Alcotest.(check bool) "monotone count" true (List.length p5 >= List.length p2);
        (* p2 is a prefix of p5 by arrival *)
        List.iteri
          (fun i (p : Sta.Paths.path) ->
            let q = List.nth p5 i in
            Alcotest.(check bool) "prefix property" true
              (Float.abs (p.arrival -. q.Sta.Paths.arrival) < 1e-9))
          p2;
        (* distinctness *)
        let keys = List.map (fun (p : Sta.Paths.path) -> Array.to_list p.pins) p5 in
        Alcotest.(check int) "distinct" (List.length keys)
          (List.length (List.sort_uniq compare keys))
      end)
    (Array.sub g.Sta.Graph.endpoints 0 (min 20 (Array.length g.Sta.Graph.endpoints)))

(* report_timing's worst path equals report_timing_endpoint's worst. *)
let test_reports_agree_on_worst () =
  let d = Lazy.force Helpers.small_generated in
  spread d 42;
  d.clock_period <- 350.0;
  let timer = Sta.Timer.create d in
  Sta.Timer.update timer;
  let n = Sta.Timer.num_failing_endpoints timer in
  if n > 0 then begin
    let rt = Sta.Timer.report_timing timer ~n in
    let ept = Sta.Timer.report_timing_endpoint timer ~n ~k:1 in
    let worst_rt = (List.hd rt : Sta.Paths.path).slack in
    let worst_ept =
      List.fold_left (fun acc (p : Sta.Paths.path) -> Float.min acc p.slack) 0.0 ept
    in
    check_float "same worst slack" worst_rt worst_ept;
    check_float "wns agrees" (Sta.Timer.wns timer) worst_rt
  end

(* Tightening the clock can only worsen (or keep) every endpoint slack. *)
let test_clock_monotonicity () =
  let d = Lazy.force Helpers.small_generated in
  spread d 43;
  d.clock_period <- 500.0;
  let t1 = Sta.Timer.create d in
  Sta.Timer.update t1;
  let tns1 = Sta.Timer.tns t1 in
  d.clock_period <- 400.0;
  let t2 = Sta.Timer.create d in
  Sta.Timer.update t2;
  let tns2 = Sta.Timer.tns t2 in
  Alcotest.(check bool) "tighter clock, worse tns" true (tns2 <= tns1 +. 1e-9);
  Alcotest.(check bool) "failing set grows" true
    (Sta.Timer.num_failing_endpoints t2 >= Sta.Timer.num_failing_endpoints t1)

(* Scaling all wire parasitics to zero leaves only cell delays: arrivals
   with a star timer must drop when r=c=0 (wire delay is nonnegative). *)
let test_zero_parasitics_bound () =
  let d0 = Helpers.chain_design () in
  let t_wire = Sta.Timer.create d0 in
  Sta.Timer.update t_wire;
  let b = Helpers.fresh_builder ~r:0.0 ~c:0.0 () in
  ignore b;
  (* Rebuild the same chain with zero parasitics. *)
  let b = Helpers.fresh_builder ~r:0.0 ~c:0.0 () in
  let pi = Builder.add_input_pad b ~cname:"pi" ~x:0.0 ~y:50.0 in
  let u1 = Builder.add_logic b ~cname:"u1" ~lib:Helpers.inv ~x:30.0 ~y:50.0 () in
  let ff = Builder.add_logic b ~cname:"ff" ~lib:Libcell.dff ~x:60.0 ~y:50.0 () in
  let u2 = Builder.add_logic b ~cname:"u2" ~lib:Helpers.inv ~x:80.0 ~y:50.0 () in
  let po = Builder.add_output_pad b ~cname:"po" ~x:100.0 ~y:50.0 in
  let wire name pins =
    let n = Builder.add_net b ~nname:name in
    List.iter (fun (cell, pin_name) -> Builder.connect_by_name b ~net:n ~cell ~pin_name) pins
  in
  wire "n1" [ (pi, "p"); (u1, "a1") ];
  wire "n2" [ (u1, "o"); (ff, "d") ];
  wire "n3" [ (ff, "q"); (u2, "a1") ];
  wire "n4" [ (u2, "o"); (po, "p") ];
  let d1 = Builder.finish b in
  let t_nowire = Sta.Timer.create d1 in
  Sta.Timer.update t_nowire;
  let po_pin = (Netlist.Design.cell_pins d1 4).(0) in
  let po_pin0 = (Netlist.Design.cell_pins d0 4).(0) in
  Alcotest.(check bool) "wire adds delay" true
    ((Sta.Timer.arrivals t_nowire).(po_pin) < (Sta.Timer.arrivals t_wire).(po_pin0))

(* Legalization under high utilization still succeeds and stays legal. *)
let test_legalize_high_utilization () =
  let p = { Helpers.small_gen_params with utilization = 0.9; num_macros = 0 } in
  let d = Workloads.Generate.generate p in
  spread d 44;
  ignore (Gp.Legalize.run d);
  Alcotest.(check bool) "legal at 90% util" true (Gp.Legalize.is_legal d)

(* Density inflation preserves area exactly for sub-bin cells. *)
let test_density_inflation_preserves_area () =
  let d = Helpers.chain_design () in
  (* bins much larger than cells *)
  let grid = Gp.Densitygrid.create d ~bins_x:4 ~bins_y:4 in
  Gp.Densitygrid.update grid d;
  let total = Array.fold_left ( +. ) 0.0 grid.Gp.Densitygrid.density in
  check_float "area preserved under inflation" (Design.movable_area d) total

(* WA wirelength is monotone in gamma for the approximation error. *)
let test_wa_gamma_ordering () =
  let d = Lazy.force Helpers.small_generated in
  spread d 45;
  let n = Design.num_cells d in
  let value gamma =
    let gx = Array.make n 0.0 and gy = Array.make n 0.0 in
    Gp.Wirelength.wa_wirelength_grad d ~gamma ~gx ~gy
  in
  let hpwl = Design.total_hpwl d in
  let v1 = value 0.5 and v2 = value 2.0 and v4 = value 8.0 in
  Alcotest.(check bool) "all under-estimate" true (v1 <= hpwl && v2 <= hpwl && v4 <= hpwl);
  Alcotest.(check bool) "smaller gamma closer" true (v1 >= v2 -. 1e-6 && v2 >= v4 -. 1e-6)

(* Elmore terminal_delay raises for unknown terminals. *)
let test_elmore_unknown_terminal () =
  let t = Rctree.Steiner.star ~xs:[| 0.0; 1.0 |] ~ys:[| 0.0; 0.0 |] in
  let res = Rctree.Elmore.compute t ~r:1.0 ~c:1.0 ~term_cap:(fun _ -> 0.0) in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Rctree.Elmore.terminal_delay t res 99);
       false
     with Invalid_argument _ -> true)

(* Nesterov on an ill-conditioned quadratic still converges. *)
let test_nesterov_ill_conditioned () =
  let scales = [| 100.0; 1.0; 0.01 |] in
  let target = [| 1.0; -2.0; 3.0 |] in
  let opt = Gp.Nesterov.create [| 0.0; 0.0; 0.0 |] in
  for _ = 1 to 3000 do
    let v = Gp.Nesterov.reference opt in
    let g = Array.mapi (fun i vi -> scales.(i) *. (vi -. target.(i))) v in
    Gp.Nesterov.step opt ~g ~fallback_step:0.005 ~max_step:50.0 ~clamp:(fun _ -> ())
  done;
  let u = Gp.Nesterov.iterate opt in
  Array.iteri
    (fun i v ->
      Alcotest.(check bool)
        (Printf.sprintf "dim %d converged (%.4f)" i v)
        true
        (Float.abs (v -. target.(i)) < 0.05))
    u

(* Suite clock calibration is deterministic. *)
let test_suite_load_deterministic () =
  let d1 = Workloads.Suite.load ~scale:0.15 "sb18" in
  let d2 = Workloads.Suite.load ~scale:0.15 "sb18" in
  check_float "same period" d1.clock_period d2.clock_period

let suite =
  [
    ("k_worst monotone/prefix/distinct", `Quick, test_k_worst_monotone);
    ("reports agree on worst", `Quick, test_reports_agree_on_worst);
    ("clock monotonicity", `Quick, test_clock_monotonicity);
    ("zero parasitics bound", `Quick, test_zero_parasitics_bound);
    ("legalize at 90% utilization", `Quick, test_legalize_high_utilization);
    ("density inflation preserves area", `Quick, test_density_inflation_preserves_area);
    ("wa gamma ordering", `Quick, test_wa_gamma_ordering);
    ("elmore unknown terminal", `Quick, test_elmore_unknown_terminal);
    ("nesterov ill-conditioned", `Quick, test_nesterov_ill_conditioned);
    ("suite load deterministic", `Slow, test_suite_load_deterministic);
  ]

(* Gvec behaves like a list under a random push/set script. *)
let q_gvec_model =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:200 ~name:"gvec matches list model"
       QCheck.(list (pair bool small_nat))
       (fun script ->
         let v = Util.Gvec.create () in
         let model = ref [] in
         List.iter
           (fun (is_push, x) ->
             if is_push || !model = [] then begin
               Util.Gvec.push v x;
               model := !model @ [ x ]
             end
             else begin
               let i = x mod List.length !model in
               Util.Gvec.set v i (x * 2);
               model := List.mapi (fun j y -> if j = i then x * 2 else y) !model
             end)
           script;
         Array.to_list (Util.Gvec.to_array v) = !model))

(* Flow without legalization reports the raw GP metrics. *)
let test_flow_no_legalize () =
  let d = Helpers.small_calibrated () in
  let cfg = { Tdp.Config.default with timing_start = 80; extra_iters = 100 } in
  let r = Tdp.Flow.run ~legalize:false (Tdp.Flow.Efficient cfg) d in
  Alcotest.(check (float 1e-9)) "gp metrics = final metrics" r.metrics_gp.tns r.metrics.tns;
  Alcotest.(check bool) "no legalize/detailed in breakdown" true
    (not (List.mem_assoc "legalize" r.breakdown))

let suite =
  suite
  @ [
      q_gvec_model;
      ("flow without legalization", `Slow, test_flow_no_legalize);
    ]
