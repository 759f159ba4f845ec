(** Whole-tree-walk Elmore reference: downstream capacitance recomputed
    by a full subtree walk per edge and root-to-node delay recomputed by
    a full root-path walk per node — O(n^2), no topological order, no
    shared accumulators. The oracle for [Rctree.Elmore.compute]. *)

type t = { total_cap : float; total_wirelen : float; sink_delay : float array }

(** Same calling convention as [Rctree.Elmore.compute]: [term_cap i] is
    the load of caller terminal [i], the root terminal's load is
    ignored. *)
val compute : Rctree.Steiner.t -> r:float -> c:float -> term_cap:(int -> float) -> t

(** {!check} over a supplied production result (mutation checks feed
    it corrupted ones). *)
val check_result :
  ?rtol:float -> Rctree.Elmore.result -> Rctree.Steiner.t -> r:float -> c:float ->
  term_cap:(int -> float) -> (unit, string) result

(** Differential gate: production vs naive on the same tree. [rtol]
    absorbs the different summation orders (default 1e-9). *)
val check :
  ?rtol:float -> Rctree.Steiner.t -> r:float -> c:float -> term_cap:(int -> float) -> (unit, string) result
