(** Fig. 3 in miniature: take the most critical path of a coarse
    placement, optimise the design under the three distance losses, and
    draw the tracked path's geometry as ASCII art.

    Run with: dune exec examples/critical_path_viz.exe *)

open Netlist

let grid_w = 64

let grid_h = 24

(* Draw the path's pin-to-pin segments onto a character grid. *)
let draw (d : Design.t) (g : Sta.Graph.t) (p : Sta.Paths.path) =
  let canvas = Array.make_matrix grid_h grid_w ' ' in
  let sx x = int_of_float (x /. Geom.Rect.width d.die *. float_of_int (grid_w - 1)) in
  let sy y = grid_h - 1 - int_of_float (y /. Geom.Rect.height d.die *. float_of_int (grid_h - 1)) in
  let clamp v lo hi = max lo (min hi v) in
  let plot x y c =
    let gx = clamp (sx x) 0 (grid_w - 1) and gy = clamp (sy y) 0 (grid_h - 1) in
    canvas.(gy).(gx) <- c
  in
  Array.iter
    (fun a ->
      if Sta.Graph.is_net_arc g a then begin
        let pi = g.Sta.Graph.arc_from.(a) and pj = g.Sta.Graph.arc_to.(a) in
        let x0 = Design.pin_x d pi and y0 = Design.pin_y d pi in
        let x1 = Design.pin_x d pj and y1 = Design.pin_y d pj in
        let steps = 40 in
        for s = 0 to steps do
          let t = float_of_int s /. float_of_int steps in
          plot (x0 +. (t *. (x1 -. x0))) (y0 +. (t *. (y1 -. y0))) '.'
        done
      end)
    p.arcs;
  Array.iteri
    (fun i pid ->
      let c = if i = 0 then 'S' else if i = Array.length p.pins - 1 then 'E' else 'o' in
      plot (Design.pin_x d pid) (Design.pin_y d pid) c)
    p.pins;
  Array.iter (fun row -> print_endline (String.init grid_w (fun i -> row.(i)))) canvas

let describe_and_draw timer name =
  Sta.Timer.update timer;
  match Sta.Timer.critical_path timer with
  | None -> print_endline "(no critical path)"
  | Some p ->
      let d = Sta.Timer.design timer and g = Sta.Timer.graph timer in
      let segs = Array.of_list (Evalkit.Wire_stats.path_segments d g p) in
      Printf.printf "\n--- %s ---\n" name;
      Printf.printf "worst path: slack %.1f ps | wirelength %.1f | max segment %.1f | segment CV %.2f\n"
        p.slack (Util.Stats.sum segs) (Util.Stats.max_elt segs)
        (Util.Stats.coeff_variation segs);
      draw d g p

let () =
  let d = Workloads.Suite.load ~scale:0.25 "sb16" in
  Printf.printf "design %s, clock %.0f ps\n" d.name d.clock_period;
  (* Coarse placement first. *)
  ignore (Tdp.Flow.run Tdp.Flow.Vanilla d);
  let timer = Sta.Timer.create d in
  describe_and_draw timer "coarse placement (wirelength-driven only)";
  let base = { Tdp.Config.default with timing_start = 120; extra_iters = 200 } in
  List.iter
    (fun (name, loss) ->
      ignore (Tdp.Flow.run (Tdp.Flow.Efficient { base with loss }) d);
      describe_and_draw timer name)
    [
      ("HPWL loss", Tdp.Config.Hpwl_like);
      ("linear Euclidean loss", Tdp.Config.Linear);
      ("quadratic loss (the paper's)", Tdp.Config.Quadratic);
    ];
  print_endline "\nquadratic: best slack, most uniform segment lengths (cf. paper Fig. 3)"
