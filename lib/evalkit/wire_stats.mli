(** Wire-segment statistics over critical paths (paper Sec. III-C):
    uniform segment lengths avoid the buffer insertion long segments
    force downstream. *)

type t = {
  num_segments : int;
  total_length : float;
  max_length : float;
  mean_length : float;
  cv : float; (* coefficient of variation: uniformity measure *)
  buffer_candidates : int; (* segments above the buffer threshold *)
}

(** Driver->sink distances of a path's net arcs. *)
val path_segments :
  Netlist.Design.t -> Sta.Graph.t -> Sta.Paths.path -> float list

val of_segments : ?buffer_threshold:float -> float list -> t

(** Over the worst path to each given endpoint pin after a full re-time
    of [timer]; unreachable endpoints add no segment. *)
val of_endpoints : Sta.Timer.t -> endpoints:int list -> t
