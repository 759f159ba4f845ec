(** Wire-segment statistics over critical paths — the paper's Sec. III-C
    observation quantified: losses that leave "excessively long wire
    segments" force downstream buffer insertion (area/power/thermal cost),
    so a placement with uniform segment lengths is preferable even at
    equal slack. [buffer_threshold] approximates the length above which a
    segment would need a repeater. *)

open Netlist

type t = {
  num_segments : int;
  total_length : float;
  max_length : float;
  mean_length : float;
  cv : float; (* coefficient of variation: uniformity measure *)
  buffer_candidates : int; (* segments longer than the threshold *)
}

(* Driver->sink distances of the net arcs on a path. *)
let path_segments (d : Design.t) (graph : Sta.Graph.t) (p : Sta.Paths.path) =
  Array.to_list p.arcs
  |> List.filter (Sta.Graph.is_net_arc graph)
  |> List.map (fun a ->
         Geom.Point.manhattan
           (Design.pin_pos d graph.Sta.Graph.arc_from.(a))
           (Design.pin_pos d graph.Sta.Graph.arc_to.(a)))

let of_segments ?(buffer_threshold = 25.0) segs =
  let a = Array.of_list segs in
  if Array.length a = 0 then
    { num_segments = 0; total_length = 0.0; max_length = 0.0; mean_length = 0.0; cv = 0.0;
      buffer_candidates = 0 }
  else
    {
      num_segments = Array.length a;
      total_length = Util.Stats.sum a;
      max_length = Util.Stats.max_elt a;
      mean_length = Util.Stats.mean a;
      cv = Util.Stats.coeff_variation a;
      buffer_candidates = Array.fold_left (fun n l -> if l > buffer_threshold then n + 1 else n) 0 a;
    }

(** Statistics over the worst path to each of [endpoints] under the
    current placement, re-timed on [timer] on entry. One endpoint set
    scores every placement on the same endpoints; the clock moves only
    required times, so it does not change which path is worst. *)
let of_endpoints timer ~endpoints =
  Sta.Timer.update timer;
  let d = Sta.Timer.design timer and graph = Sta.Timer.graph timer in
  let segs =
    List.concat_map
      (fun e ->
        match Sta.Timer.worst_path timer ~endpoint:e with
        | None -> []
        | Some p -> path_segments d graph p)
      endpoints
  in
  of_segments segs
