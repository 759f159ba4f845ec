(** Critical path enumeration: best-first search over partial backward
    walks keyed by the exact completion bound (the implicit path
    representation of modern timers, in plain best-first form). Every pop
    of a complete path is the next-worst path into the endpoint. *)

type path = {
  endpoint : int;
  arrival : float; (* data arrival at the endpoint along this path *)
  slack : float; (* end_required(endpoint) - arrival *)
  pins : int array; (* startpoint first, endpoint last *)
  arcs : int array; (* arcs.(i) connects pins.(i) -> pins.(i+1) *)
}

(** Total order "worst first": larger arrival first, ties broken on the
    endpoint pin id and then on the pin sequence lexicographically, so
    equal-arrival paths order reproducibly (across runs and domain
    counts). Equal only for identical paths. *)
val compare_worst : path -> path -> int

(** Total order "most violating first": smaller slack first, same
    structural tie-break as {!compare_worst}. *)
val compare_by_slack : path -> path -> int

(** Scratch state of the k-worst search: a heap and a flat arena of
    partial suffixes (parent pointers), grown to the largest search and
    reused. One search at a time per workspace. *)
type workspace

val workspace : unit -> workspace

(** Up to [k] complete paths into [endpoint], worst (largest arrival)
    first ({!compare_worst} order); [] when unreachable. [arr] must hold
    current arrivals. *)
val k_worst : workspace -> Graph.t -> float array -> endpoint:int -> k:int -> path list

(** The single worst path into [endpoint]: {!k_worst} at k = 1. *)
val worst_path : workspace -> Graph.t -> float array -> endpoint:int -> path option

(** Structural validity + arrival consistency; used by tests. *)
val is_valid : Graph.t -> path -> bool
