(** Distribution-TDP baseline (Lin, Chang & Huang, ISPD'24), approximated
    as described in DESIGN.md: each cell on a failing endpoint's worst
    path is given an *expected range* — here collapsed to the midpoint of
    its path neighbours — and a spring force (weighted by the path's
    criticality) pulls it toward that range. This captures the method's
    essence (placement targets derived from where timing expects cells to
    sit) without its full mathematical-programming machinery. *)

open Netlist

type anchor = { cell : int; tx : float; ty : float; strength : float }

type t = {
  design : Design.t;
  timer : Sta.Timer.t;
  mutable anchors : anchor list;
}

let create timer = { design = Sta.Timer.design timer; timer; anchors = [] }

(** One timing round: re-time, extract each failing endpoint's worst path,
    derive anchors. Returns (tns, wns). *)
let round t =
  let tns, wns = Sta.Timer.retime t.timer in
  let d = t.design in
  t.anchors <- [];
  if wns < 0.0 then begin
    let n = Sta.Timer.num_failing_endpoints t.timer in
    let paths = Sta.Timer.report_timing_endpoint t.timer ~n ~k:1 in
    List.iter
      (fun (p : Sta.Paths.path) ->
        if p.slack < 0.0 then begin
          let crit = p.slack /. wns in
          let np = Array.length p.pins in
          for i = 1 to np - 2 do
            let pid = p.pins.(i) in
            let cid = d.pin_owner.(pid) in
            if Design.is_movable d cid then begin
              let prev = p.pins.(i - 1) and next = p.pins.(i + 1) in
              let tx =
                ((Design.pin_x d prev +. Design.pin_x d next) /. 2.0) -. d.pin_off_x.{pid}
              in
              let ty =
                ((Design.pin_y d prev +. Design.pin_y d next) /. 2.0) -. d.pin_off_y.{pid}
              in
              t.anchors <- { cell = cid; tx; ty; strength = crit } :: t.anchors
            end
          done
        end)
      paths
  end;
  (tns, wns)

(** Spring gradient toward the anchors: d/dpos of
    strength/2 * ||pos - target||^2. *)
let add_grad t ~gx ~gy =
  let d = t.design in
  List.iter
    (fun a ->
      gx.(a.cell) <- gx.(a.cell) +. (a.strength *. (d.x.{a.cell} -. a.tx));
      gy.(a.cell) <- gy.(a.cell) +. (a.strength *. (d.y.{a.cell} -. a.ty)))
    t.anchors
