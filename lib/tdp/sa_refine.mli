(** Simulated-annealing timing refinement (Swartz-Sechen spirit):
    equal-width swaps accepted by Metropolis on a TNS + wirelength cost,
    re-timed per move with the incremental timer. Runs on a legal
    placement, preserves legality, and restores the best state seen —
    the result never regresses the start. *)

type stats = {
  moves : int;
  accepted : int;
  tns_before : float;
  tns_after : float;
  hpwl_before : float;
  hpwl_after : float;
}

(** [run timer] re-times [timer], then refines its design's placement. *)
val run : ?moves:int -> Sta.Timer.t -> stats
