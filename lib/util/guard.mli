(** Divergence guards: finiteness checks over float state. Used by the
    placement loop to detect a poisoned gradient/iterate and roll back
    instead of silently corrupting the run. *)

val is_finite : float -> bool

(** Every element is finite (neither NaN nor infinite). Early-exits on
    the first offender. *)
val all_finite : float array -> bool

val all_finite_ba : (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t -> bool

(** Index of the first non-finite element, if any. *)
val first_nonfinite : float array -> int option

val count_nonfinite : float array -> int

(** Cheap sampled check for hot paths: probes at most 64 elements
    on a fixed stride starting at [offset] (rotate the offset across
    calls to sweep the array). Full scan for short arrays. A [true]
    result is not a proof — pair with a periodic full check. *)
val sampled_finite : ?offset:int -> float array -> bool
