(** Data-parallel loops over OCaml 5 domains — the CPU stand-in for the
    paper's CUDA kernels — backed by a persistent worker pool.

    {2 Pool lifecycle}

    [num_domains - 1] workers are spawned lazily on the first dispatching
    call and parked on a condition variable between calls, so per-call
    cost is a broadcast + barrier, not a [Domain.spawn]. The pool only
    grows (to the largest worker count requested so far); lowering
    [num_domains] leaves the extra workers parked. For a fixed domain
    count every worker is spawned at most once per process ({!spawned}
    counts them, which the tests assert). Workers are joined via an
    [at_exit] hook.

    {2 Determinism contract}

    There is no reduction entry point. Every parallel body writes only
    locations no other chunk writes (a per-index output slot, a bin row,
    a per-chunk scratch lane), and any float sum runs sequentially in a
    fixed order, either after the parallel pass or inside one chunk's
    own slot. Results therefore do not depend on the domain count,
    scheduling, core count or the grain: every domain count produces the
    bits of the 1-domain run.

    {2 Nesting}

    Kernel bodies must not call a dispatching entry point (the barrier
    would deadlock): a nested dispatch raises [Invalid_argument]. Nested
    calls that stay below their grain run inline and are fine. *)

val num_domains : int ref

(** Set the domain count (clamped to [1, 128]). 1 = sequential. *)
val set_num_domains : int -> unit

(** Total pool workers spawned so far in this process. *)
val spawned : unit -> int

(** Join all pool workers (also installed as an [at_exit] hook). The pool
    respawns lazily if another parallel call follows. *)
val shutdown : unit -> unit

(** [for_ n f] runs [f i] for all [0 <= i < n]; chunked across domains
    when enabled and [n >= grain] (default 1024). [f] must only write to
    disjoint locations per index. *)
val for_ : ?grain:int -> ?name:string -> int -> (int -> unit) -> unit

(** Split [0, n) into one contiguous chunk per domain; [f ~chunk ~lo ~hi]
    runs once per non-empty chunk ([chunk] indexes per-domain buffers).
    The partition is the same whether the call dispatches ([n >= grain],
    default 256) or runs inline. *)
val for_chunks :
  ?grain:int -> ?name:string -> n:int -> (chunk:int -> lo:int -> hi:int -> unit) -> unit

(** Number of chunks {!for_chunks} uses for size [n] — [num_domains]
    when parallel, 1 when sequential or [n = 0]. Kernels use it only to
    size per-chunk scratch. *)
val chunk_count : n:int -> int

(** {2 Instrumentation} *)

(** Per-call kernel stats delivered to the installed hook. *)
type stats = {
  kernel : string;
  n : int;
  chunks : int;
  total_s : float; (* wall time of the whole call *)
  chunk_s : float array; (* per-chunk wall time, length [chunks] *)
}

(** Install (or clear) the observer called after every *named* parallel
    call — the obs layer wires this to span/histogram sinks without util
    depending on obs. Adds two clock reads per chunk when installed. *)
val set_instrument : (stats -> unit) option -> unit

(** Whether an instrumentation hook is currently installed. Allocation-
    sensitive kernels use this to decide between a closure-free direct
    call (sequential, uninstrumented) and a named parallel dispatch that
    keeps the [par.*] metrics alive. *)
val instrumented : unit -> bool
