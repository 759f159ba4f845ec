(** The common scorer applied to every flow's output — the stand-in for
    the ICCAD 2015 contest evaluation kit. All flows are measured with the
    same Steiner-tree Elmore timing model regardless of what their
    internal timer used, so comparisons are apples to apples. *)

type t = {
  hpwl : float;
  tns : float;
  wns : float;
  num_failing : int;
  num_endpoints : int;
}

(** Score the current placement on [timer] after a full re-time. *)
let of_timer timer =
  Sta.Timer.update timer;
  {
    hpwl = Netlist.Design.total_hpwl (Sta.Timer.design timer);
    tns = Sta.Timer.tns timer;
    wns = Sta.Timer.wns timer;
    num_failing = Sta.Timer.num_failing_endpoints timer;
    num_endpoints = Array.length (Sta.Timer.graph timer).Sta.Graph.endpoints;
  }

(** Evaluate the design's current placement on a fresh scorer timer. *)
let evaluate ?par d = of_timer (Sta.Timer.create ?par ~topology:Sta.Delay.Steiner_tree d)

let pp fmt m =
  Format.fprintf fmt "hpwl=%.4e tns=%.1f wns=%.1f failing=%d/%d" m.hpwl m.tns m.wns
    m.num_failing m.num_endpoints

(** Ratio of a metric against a baseline, guarding signs/zeros: for TNS
    and WNS (non-positive, lower worse) the ratio is |x| / |base| with 0/0
    treated as 1. *)
let neg_metric_ratio ~value ~base =
  let av = Float.abs value and ab = Float.abs base in
  if ab < 1e-9 then if av < 1e-9 then 1.0 else Float.infinity else av /. ab
