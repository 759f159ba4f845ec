(** Timing-aware detailed placement on a legal placement: equal-width swap
    moves around critical cells, accepted when the incrementally re-timed
    TNS improves. Legality is preserved by construction. *)

type stats = {
  candidates : int;
  accepted : int;
  tns_before : float;
  tns_after : float;
}

(** [run timer] re-times [timer], then mutates its design's placement;
    TNS never degrades. [max_endpoints] bounds the critical path set,
    [window] the swap search radius. *)
val run : ?max_endpoints:int -> ?window:float -> Sta.Timer.t -> stats
