(** The two critical-path extraction commands compared by the paper
    (Sec. III-B, Table I).

    [report_timing ~n]: OpenTimer-style — up to n worst paths from each of
    the n worst endpoints pooled (O(n^2)), globally worst n returned.
    Concentrates on few endpoints.

    [report_timing_endpoint ~n ~k]: the paper's method — the k worst paths
    of each of the n worst endpoints, O(n*k), full endpoint coverage. *)

type stats = {
  num_paths : int;
  num_endpoints : int; (* distinct endpoints covered *)
  num_pin_pairs : int; (* distinct net-arc (driver, sink) pairs *)
  elapsed : float; (* seconds *)
}

val stats_of : Graph.t -> Paths.path list -> elapsed:float -> stats

(** [failing_only] (default true) restricts to violated endpoints; [cap]
    bounds the candidate pool of the O(n^2) command. Both commands take
    the endpoints from {!Propagate.ranking} and search in [wss], one
    {!Paths.workspace} per domain of the propagation's [par], which the
    endpoint fan-out of [report_timing_endpoint] runs on. *)
val report_timing :
  ?failing_only:bool ->
  ?cap:int ->
  Paths.workspace array ->
  Propagate.t ->
  Graph.t ->
  n:int ->
  Paths.path list

val report_timing_endpoint :
  ?failing_only:bool ->
  Paths.workspace array ->
  Propagate.t ->
  Graph.t ->
  n:int ->
  k:int ->
  Paths.path list

(** OpenTimer-style textual path report (per-pin increments + slack). *)
val pp_path : Format.formatter -> Graph.t -> Paths.path -> unit
