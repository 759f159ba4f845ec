(** DREAMPlace 4.0 baseline: momentum-based net weighting.

    Every timing round, each net's criticality is the (normalised) worst
    negative slack over its pins; a candidate weight grows with
    criticality and is folded into the running weight with momentum:

      crit_e = clamp(-worst_pin_slack_e / |WNS|, 0, 1)
      w_hat  = 1 + alpha * crit_e
      w_e   <- momentum * w_e + (1 - momentum) * w_hat

    The weights multiply the nets' WA wirelength terms — the net weighting
    scheme of Eq. 5 in the paper. This is pin-level information: it cannot
    see path sharing, the limitation Sec. III-A motivates. *)

open Netlist

type t = { timer : Sta.Timer.t; design : Design.t }

let alpha = 8.0

let momentum = 0.5

let create timer = { timer; design = Sta.Timer.design timer }

(** One timing round: re-time, refresh all net weights in place.
    Returns (tns, wns). *)
let round t =
  let tns, wns = Sta.Timer.retime t.timer in
  let slack = Sta.Timer.slacks t.timer in
  let d = t.design in
  if wns < 0.0 then
    for nid = 0 to Design.num_nets d - 1 do
      let worst = ref Float.infinity in
      Design.iter_net_pins d nid (fun pid ->
          if slack.(pid) < !worst then worst := slack.(pid));
      let crit =
        if Float.is_finite !worst && !worst < 0.0 then Float.min 1.0 (!worst /. wns) else 0.0
      in
      let w_hat = 1.0 +. (alpha *. crit) in
      d.net_weight.{nid} <- (momentum *. d.net_weight.{nid}) +. ((1.0 -. momentum) *. w_hat)
    done;
  (tns, wns)
