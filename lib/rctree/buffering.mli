(** Van Ginneken buffer insertion (estimation) on a Steiner topology:
    bottom-up non-dominated (cap, required-time) candidates; buffers may
    sit at internal tree nodes. Quantifies how much required-time a legal
    buffering could recover on a net — the cost long wire segments impose
    (paper Sec. III-C). *)

type buffer = { in_cap : float; intrinsic : float; drive : float }

val default_buffer : buffer

type candidate = { cap : float; q : float; buffers : int }

(** Exposed for tests: keep non-dominated candidates (cap up, q up). *)
val prune : candidate list -> candidate list

type result = {
  best_q : float; (* required time achievable at the driver output *)
  buffers_used : int;
  unbuffered_q : float; (* same metric with no buffers allowed *)
}

(** [term_req i] / [term_cap i]: required time and load of caller terminal
    [i] (root terminal 0 is the driver). *)
val estimate :
  Steiner.t ->
  r:float ->
  c:float ->
  drive_res:float ->
  term_req:(int -> float) ->
  term_cap:(int -> float) ->
  result
