(** Differentiable-timing baseline (Guo & Lin, DAC'22, re-implemented at
    the fidelity our substrate supports; see DESIGN.md).

    A smooth timer is differentiated end to end:
    - forward: arrivals propagate with a log-sum-exp smooth max
      (temperature [gamma_sm] = 8 ps) over the timing graph;
    - loss: smooth TNS = sum over endpoints of
      eta * softplus((arr - req) / eta), eta = 15 ps;
    - backward: reverse-mode adjoints distribute each endpoint's loss
      sensitivity across in-arcs by their softmax shares, yielding
      dLoss/d(arc delay) for every arc;
    - chain rule through the *star* wire model maps arc-delay gradients to
      cell-position gradients (star keeps the delay a closed-form function
      of pin-to-pin distances).

    The flow normalises the gradient and adds it to the placement
    objective. *)

open Netlist

type t = {
  design : Design.t;
  timer : Sta.Timer.t; (* star topology: matches the gradient model *)
  arr_sm : float array; (* smooth arrivals *)
  adjoint : float array; (* dLoss / d(arr) *)
  dl_darc : float array; (* dLoss / d(arc delay) *)
  drive_res : float array; (* per net: its driver's output resistance *)
  (* Per-sink scratch of [add_grad], sized to the widest net and reused
     for every net: driver-to-sink dx/dy and Manhattan length. *)
  dxs : float array;
  dys : float array;
  lens : float array;
}

let gamma_sm = 8.0 (* smooth-max temperature, ps *)

let eta = 15.0 (* softplus sharpness for negative slack, ps *)

let create ?fault ~par design =
  let timer = Sta.Timer.create ~par ~topology:Sta.Delay.Star ?fault design in
  let graph = Sta.Timer.graph timer in
  let max_sinks = ref 0 in
  let drive_res = Array.make (Design.num_nets design) 0.0 in
  for nid = 0 to Design.num_nets design - 1 do
    let nsinks = Design.net_num_sinks design nid in
    max_sinks := Int.max !max_sinks nsinks;
    if nsinks > 0 then begin
      let r, _, _ = Sta.Delay.driver_params design design.net_driver.(nid) in
      drive_res.(nid) <- r
    end
  done;
  {
    design;
    timer;
    arr_sm = Array.make (Sta.Graph.num_pins graph) 0.0;
    adjoint = Array.make (Sta.Graph.num_pins graph) 0.0;
    dl_darc = Array.make graph.Sta.Graph.num_arcs 0.0;
    drive_res;
    dxs = Array.make !max_sinks 0.0;
    dys = Array.make !max_sinks 0.0;
    lens = Array.make !max_sinks 0.0;
  }

(* At top level and inlined: as a local function in [add_grad]'s loop it
   was called out of line and boxed its result (about 5M minor words on
   a diff-flow run of sb1 at scale 0.5). *)
let[@inline] sgn v = if v > 0.0 then 1.0 else if v < 0.0 then -1.0 else 0.0

let softplus x = if x > 30.0 then x else log (1.0 +. exp x)

let sigmoid x = if x > 30.0 then 1.0 else if x < -30.0 then 0.0 else 1.0 /. (1.0 +. exp (-.x))

(* Forward smooth arrivals over the (already delay-updated) graph. *)
let forward t =
  let graph = Sta.Timer.graph t.timer in
  let arr = t.arr_sm in
  Array.iter
    (fun p ->
      if graph.Sta.Graph.is_startpoint.(p) then arr.(p) <- graph.Sta.Graph.start_arrival.(p)
      else begin
        let lo = graph.Sta.Graph.in_start.(p) and hi = graph.Sta.Graph.in_start.(p + 1) in
        if lo = hi then arr.(p) <- Float.neg_infinity
        else begin
          (* log-sum-exp with max subtraction *)
          let m = ref Float.neg_infinity in
          for i = lo to hi - 1 do
            let a = graph.Sta.Graph.in_arc.(i) in
            let v = arr.(graph.Sta.Graph.arc_from.(a)) +. graph.Sta.Graph.arc_delay.(a) in
            if v > !m then m := v
          done;
          if Float.is_finite !m then begin
            let s = ref 0.0 in
            for i = lo to hi - 1 do
              let a = graph.Sta.Graph.in_arc.(i) in
              let v = arr.(graph.Sta.Graph.arc_from.(a)) +. graph.Sta.Graph.arc_delay.(a) in
              if Float.is_finite v then s := !s +. exp ((v -. !m) /. gamma_sm)
            done;
            arr.(p) <- !m +. (gamma_sm *. log !s)
          end
          else arr.(p) <- Float.neg_infinity
        end
      end)
    graph.Sta.Graph.topo

(* Backward adjoints; fills dl_darc. Returns the smooth TNS loss value. *)
let backward t =
  let graph = Sta.Timer.graph t.timer in
  let arr = t.arr_sm and adj = t.adjoint in
  Array.fill adj 0 (Array.length adj) 0.0;
  Array.fill t.dl_darc 0 (Array.length t.dl_darc) 0.0;
  let loss = ref 0.0 in
  Array.iter
    (fun e ->
      if Float.is_finite arr.(e) then begin
        let x = (arr.(e) -. graph.Sta.Graph.end_required.(e)) /. eta in
        loss := !loss +. (eta *. softplus x);
        adj.(e) <- adj.(e) +. sigmoid x
      end)
    graph.Sta.Graph.endpoints;
  (* Reverse topological order: distribute adjoints over in-arc shares. *)
  for i = Array.length graph.Sta.Graph.topo - 1 downto 0 do
    let p = graph.Sta.Graph.topo.(i) in
    let a_p = adj.(p) in
    if a_p <> 0.0 && not graph.Sta.Graph.is_startpoint.(p) then begin
      let lo = graph.Sta.Graph.in_start.(p) and hi = graph.Sta.Graph.in_start.(p + 1) in
      if lo < hi && Float.is_finite arr.(p) then
        for j = lo to hi - 1 do
          let a = graph.Sta.Graph.in_arc.(j) in
          let u = graph.Sta.Graph.arc_from.(a) in
          let v = arr.(u) +. graph.Sta.Graph.arc_delay.(a) in
          if Float.is_finite v then begin
            let share = exp ((v -. arr.(p)) /. gamma_sm) in
            t.dl_darc.(a) <- t.dl_darc.(a) +. (a_p *. share);
            adj.(u) <- adj.(u) +. (a_p *. share)
          end
        done
    end
  done;
  !loss

(** One timing round: re-time (star model), run the differentiable
    forward/backward. Returns (tns, wns) from the hard timer. *)
let round t =
  let tns_wns = Sta.Timer.retime t.timer in
  forward t;
  let _loss = backward t in
  tns_wns

let smooth_arrivals t = t.arr_sm

(** Chain rule through the star Elmore model: adds dLoss/d(pos)
    into [gx]/[gy]. Must be called after [round] with an unchanged
    placement (the shares are evaluated at that placement; in the flow the
    gradient is reused between rounds, as Guo & Lin do between incremental
    updates). *)
let add_grad t ~gx ~gy =
  let d = t.design in
  let graph = Sta.Timer.graph t.timer in
  let r = d.r_per_unit and c = d.c_per_unit in
  for nid = 0 to Design.num_nets d - 1 do
    let nsinks = Design.net_num_sinks d nid in
    if nsinks > 0 then begin
      let driver = d.net_driver.(nid) in
      let drive_res = t.drive_res.(nid) in
      (* Pin positions read in place: [Design.pin_x] is a cross-module
         call under the dev profile's [-opaque] and boxes its result. *)
      let cd = d.pin_owner.(driver) in
      let dx0 = d.x.{cd} +. d.pin_off_x.{driver} in
      let dy0 = d.y.{cd} +. d.pin_off_y.{driver} in
      let dxs = t.dxs and dys = t.dys and lens = t.lens in
      for k = 0 to nsinks - 1 do
        let spid = Design.net_sink d nid k in
        let cs = d.pin_owner.(spid) in
        dxs.(k) <- dx0 -. (d.x.{cs} +. d.pin_off_x.{spid});
        dys.(k) <- dy0 -. (d.y.{cs} +. d.pin_off_y.{spid});
        lens.(k) <- Float.abs dxs.(k) +. Float.abs dys.(k)
      done;
      (* dLoss/d(arc delay) of sink k's arc is [dl_darc.(a0 + k)]. *)
      let a0 = Sta.Graph.net_arc graph ~net:nid ~sink:0 in
      let gsum = ref 0.0 in
      for k = 0 to nsinks - 1 do
        gsum := !gsum +. t.dl_darc.(a0 + k)
      done;
      (* delay_k = R_drv * sum_j (c*L_j + C_j) + r*L_k*(c*L_k/2 + C_k) *)
      for k = 0 to nsinks - 1 do
        let spid = Design.net_sink d nid k in
        let sink_cap = d.pin_cap.{spid} in
        let dl_dlen =
          (drive_res *. c *. !gsum)
          +. (t.dl_darc.(a0 + k) *. ((r *. c *. lens.(k)) +. (r *. sink_cap)))
        in
        if dl_dlen <> 0.0 then begin
          let gx_d = dl_dlen *. sgn dxs.(k) in
          let gy_d = dl_dlen *. sgn dys.(k) in
          let cs = d.pin_owner.(spid) in
          gx.(cd) <- gx.(cd) +. gx_d;
          gy.(cd) <- gy.(cd) +. gy_d;
          gx.(cs) <- gx.(cs) -. gx_d;
          gy.(cs) <- gy.(cs) -. gy_d
        end
      done
    end
  done
