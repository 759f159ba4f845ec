(** Metamorphic properties (see the interface). *)

open Compare
open Netlist

let wirelength_translation ?(rtol = 1e-9) (d : Design.t) ~gamma ~dx ~dy =
  let saved = Design.snapshot d in
  let hp0 = Gp.Wirelength.weighted_hpwl d in
  let wa0 = Ref_place.wa_value d ~gamma in
  for i = 0 to Design.num_cells d - 1 do
    d.x.{i} <- d.x.{i} +. dx;
    d.y.{i} <- d.y.{i} +. dy
  done;
  let hp1 = Gp.Wirelength.weighted_hpwl d in
  let wa1 = Ref_place.wa_value d ~gamma in
  Design.restore d saved;
  let atol = rtol *. (1.0 +. Float.abs hp0) *. (1.0 +. Float.abs dx +. Float.abs dy) in
  let* () = check_float ~rtol ~atol ~what:"hpwl after translation" hp1 hp0 in
  check_float ~rtol ~atol ~what:"wa after translation" wa1 wa0

let wa_bounds (d : Design.t) ~gamma =
  let hp = Gp.Wirelength.weighted_hpwl d in
  let wa = Ref_place.wa_value d ~gamma in
  let* () = check_bool ~what:(Printf.sprintf "wa %g >= 0" wa) (wa >= 0.0) in
  check_bool
    ~what:(Printf.sprintf "wa %g <= hpwl %g" wa hp)
    (wa <= hp +. (1e-9 *. (1.0 +. hp)))

let transpose_design (d : Design.t) : Design.t =
  let die =
    Geom.Rect.make ~xl:d.die.Geom.Rect.yl ~yl:d.die.Geom.Rect.xl ~xh:d.die.Geom.Rect.yh
      ~yh:d.die.Geom.Rect.xh
  in
  {
    d with
    die;
    w = Design.farr_copy d.h;
    h = Design.farr_copy d.w;
    pin_off_x = Design.farr_copy d.pin_off_y;
    pin_off_y = Design.farr_copy d.pin_off_x;
    x = Design.farr_copy d.y;
    y = Design.farr_copy d.x;
  }

let transpose_consistent ?(rtol = 1e-9) (d : Design.t) ~gamma ~bins =
  let dt = transpose_design d in
  let* () =
    check_float ~rtol ~what:"transposed hpwl" (Gp.Wirelength.weighted_hpwl dt)
      (Gp.Wirelength.weighted_hpwl d)
  in
  let* () =
    check_float ~rtol ~what:"transposed wa" (Ref_place.wa_value dt ~gamma)
      (Ref_place.wa_value d ~gamma)
  in
  let g = Gp.Densitygrid.create ~par:(Util.Parallel.default ()) d ~bins_x:bins ~bins_y:bins in
  let gt = Gp.Densitygrid.create ~par:(Util.Parallel.default ()) dt ~bins_x:bins ~bins_y:bins in
  Gp.Densitygrid.update g d;
  Gp.Densitygrid.update gt dt;
  let transposed =
    Array.init (bins * bins) (fun i ->
        let by = i / bins and bx = i mod bins in
        (* Cell (bx, by) of the transposed design is cell (by, bx) here. *)
        gt.Gp.Densitygrid.density.((bx * bins) + by))
  in
  check_array ~rtol ~atol:1e-9 ~what:"transposed density grid" transposed
    g.Gp.Densitygrid.density

let density_mass ?(rtol = 1e-9) (d : Design.t) (grid : Gp.Densitygrid.t) =
  let die = grid.Gp.Densitygrid.die in
  let bin_w = grid.Gp.Densitygrid.bin_w and bin_h = grid.Gp.Densitygrid.bin_h in
  (* Expected mass: each movable cell's inflated rectangle clipped against
     the die outline directly — no bin decomposition anywhere. *)
  let expect = ref 0.0 in
  for id = 0 to Design.num_cells d - 1 do
    if Design.is_movable d id then begin
      let cw = d.w.{id} and ch = d.h.{id} in
      let ew = Float.max cw bin_w and eh = Float.max ch bin_h in
      let scale = cw *. ch /. (ew *. eh) in
      let xl = Float.max (d.x.{id} -. (ew /. 2.0)) die.Geom.Rect.xl in
      let xh = Float.min (d.x.{id} +. (ew /. 2.0)) die.Geom.Rect.xh in
      let yl = Float.max (d.y.{id} -. (eh /. 2.0)) die.Geom.Rect.yl in
      let yh = Float.min (d.y.{id} +. (eh /. 2.0)) die.Geom.Rect.yh in
      if xh > xl && yh > yl then expect := !expect +. ((xh -. xl) *. (yh -. yl) *. scale)
    end
  done;
  let got = Array.fold_left ( +. ) 0.0 grid.Gp.Densitygrid.density in
  check_float ~rtol ~atol:(rtol *. (1.0 +. !expect)) ~what:"density mass" got !expect

let elmore_monotone ~lambda (tree : Rctree.Steiner.t) ~r ~c ~term_cap =
  if lambda < 1.0 then invalid_arg "Metamorphic.elmore_monotone: lambda < 1";
  let scaled =
    { tree with Rctree.Steiner.edge_len = Array.map (fun l -> l *. lambda) tree.Rctree.Steiner.edge_len }
  in
  let base = Rctree.Elmore.compute tree ~r ~c ~term_cap in
  let big = Rctree.Elmore.compute scaled ~r ~c ~term_cap in
  let* () =
    check_bool
      ~what:
        (Printf.sprintf "total_cap monotone (%g -> %g)" base.Rctree.Elmore.total_cap
           big.Rctree.Elmore.total_cap)
      (big.Rctree.Elmore.total_cap >= base.Rctree.Elmore.total_cap)
  in
  let* () =
    check_float ~rtol:1e-9 ~what:"total_wirelen scales"
      big.Rctree.Elmore.total_wirelen
      (lambda *. base.Rctree.Elmore.total_wirelen)
  in
  let bad = ref None in
  Array.iteri
    (fun v dv ->
      if !bad = None && big.Rctree.Elmore.sink_delay.(v) < dv then
        bad := Some (v, dv, big.Rctree.Elmore.sink_delay.(v)))
    base.Rctree.Elmore.sink_delay;
  match !bad with
  | None -> Ok ()
  | Some (v, d0, d1) ->
      Error (Printf.sprintf "sink %d sped up under lengthening: %.12g -> %.12g" v d0 d1)

let tns_wns_consistent timer =
  Sta.Timer.update timer;
  let graph = Sta.Timer.graph timer in
  let slack = Sta.Timer.slacks timer in
  let wns_expect =
    Array.fold_left
      (fun acc p -> if Float.is_finite slack.(p) then Float.min acc slack.(p) else acc)
      0.0 graph.Sta.Graph.endpoints
    |> Float.min 0.0
  in
  let tns_expect =
    Array.fold_left
      (fun acc p ->
        if Float.is_finite slack.(p) && slack.(p) < 0.0 then acc +. slack.(p) else acc)
      0.0 graph.Sta.Graph.endpoints
  in
  let wns = Sta.Timer.wns timer and tns = Sta.Timer.tns timer in
  let* () = check_float ~rtol:0.0 ~what:"wns vs slack array" wns wns_expect in
  let* () = check_float ~rtol:0.0 ~what:"tns vs slack array" tns tns_expect in
  let* () = check_bool ~what:(Printf.sprintf "wns %g <= 0" wns) (wns <= 0.0) in
  check_bool ~what:(Printf.sprintf "tns %g <= wns %g" tns wns) (tns <= wns +. 1e-12)

let eq9_accumulation ?(rtol = 1e-9) (graph : Sta.Graph.t) attract ~w0 ~w1 ~wns paths =
  (* Independent replay of Eq. 9 over the same path list. *)
  let expect : (int * int, float) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (p : Sta.Paths.path) ->
      if p.slack < 0.0 && wns < 0.0 then
        Array.iter
          (fun a ->
            if Sta.Graph.is_net_arc graph a then begin
              let key = (graph.Sta.Graph.arc_from.(a), graph.Sta.Graph.arc_to.(a)) in
              match Hashtbl.find_opt expect key with
              | None -> Hashtbl.add expect key w0
              | Some w -> Hashtbl.replace expect key (w +. (w1 *. p.slack /. wns))
            end)
          p.arcs)
    paths;
  let checks =
    Tdp.Pin_attract.fold_pairs attract ~init:[] ~f:(fun acc ~pin_i ~pin_j ~weight ->
        let check =
          match Hashtbl.find_opt expect (pin_i, pin_j) with
          | None -> Error (Printf.sprintf "unexpected pair (%d, %d)" pin_i pin_j)
          | Some w ->
              Hashtbl.remove expect (pin_i, pin_j);
              check_float ~rtol ~what:(Printf.sprintf "weight of pair (%d, %d)" pin_i pin_j)
                weight w
        in
        check :: acc)
  in
  let* () = all checks in
  if Hashtbl.length expect = 0 then Ok ()
  else
    let (i, j), _ = List.hd (List.of_seq (Hashtbl.to_seq expect)) in
    Error
      (Printf.sprintf "%d expected pair(s) missing, e.g. (%d, %d)" (Hashtbl.length expect) i j)
