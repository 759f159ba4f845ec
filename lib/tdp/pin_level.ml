(** Pin-level timing weighting — the paper's 'w/o Path Extraction'
    ablation (Table III): keep our framework's pin-pair attraction
    machinery, but feed it *pin-level* slack information with DREAMPlace
    4.0's momentum scheme instead of extracted critical paths.

    Every net arc whose sink pin has negative slack becomes a weighted
    pair; its target weight follows the sink pin's criticality and is
    folded in with momentum. Because slacks are per-pin minima over all
    paths, path sharing is invisible — two violating paths through the
    same pair contribute no more than one (the effect Sec. III-A argues
    costs WNS). *)

type t = { timer : Sta.Timer.t; attract : Pin_attract.t }

let create timer =
  { timer; attract = Pin_attract.create (Sta.Timer.design timer) ~loss:Config.Quadratic }

(** One timing round: re-time; for each net arc whose sink fails, update
    the pair weight toward 1 + alpha * crit with momentum. Returns
    (tns, wns). *)
let round t =
  let tns, wns = Sta.Timer.retime t.timer in
  if wns < 0.0 then begin
    let graph = Sta.Timer.graph t.timer in
    let slack = Sta.Timer.slacks t.timer in
    for a = 0 to graph.Sta.Graph.num_net_arcs - 1 do
      let j = graph.Sta.Graph.arc_to.(a) in
      if Float.is_finite slack.(j) && slack.(j) < 0.0 then begin
        let crit = Float.min 1.0 (slack.(j) /. wns) in
        let w_hat = 1.0 +. (Net_weighting.alpha *. crit) in
        Pin_attract.update_pair_momentum t.attract
          ~pin_i:graph.Sta.Graph.arc_from.(a) ~pin_j:j ~w_hat ~momentum:Net_weighting.momentum
      end
    done
  end;
  (tns, wns)

let add_grad t ~gx ~gy = Pin_attract.add_grad t.attract ~gx ~gy
