(** Data-parallel loops over OCaml 5 domains — the CPU stand-in for the
    paper's CUDA kernels — backed by a persistent worker pool.

    {2 The pool as a value}

    A {!t} is a domain count and an optional stats hook. A kernel's
    owner (a timer, a density grid, a spectral plan, a wirelength
    workspace) is created with one and keeps it, sizing its per-chunk
    scratch from {!domains} once; every call then reads the value from
    the owner. Nothing a kernel runs depends on process-global state:
    two owners with different values can run in one process, one after
    the other, without seeing each other.

    {2 Pool lifecycle}

    [domains - 1] workers are spawned lazily on the first dispatching
    call and parked on a condition variable between calls, so per-call
    cost is a broadcast + barrier, not a [Domain.spawn]. The pool only
    grows (to the largest worker count requested so far); a value with
    fewer domains leaves the extra workers parked. For a fixed domain
    count every worker is spawned at most once per process ({!spawned}
    counts them, which the tests assert). Workers are joined via an
    [at_exit] hook.

    {2 Determinism contract}

    There is no reduction entry point. Every parallel body writes only
    locations no other chunk writes (a per-index output slot, a bin row,
    a per-chunk scratch lane), and any float sum runs sequentially in a
    fixed order, either after the parallel pass or inside one chunk's
    own slot. Results therefore do not depend on the domain count,
    scheduling, core count, the grain or the hook: every domain count
    produces the bits of the 1-domain run.

    {2 Nesting}

    Kernel bodies must not call a dispatching entry point (the barrier
    would deadlock): a nested dispatch raises [Invalid_argument]. Nested
    calls that stay below their grain run inline and are fine. *)

(** Per-call kernel stats delivered to a value's hook. *)
type stats = {
  kernel : string;
  n : int;
  chunks : int;
  dispatched : bool; (* ran on the pool; false below the call's grain *)
  total_s : float; (* wall time of the whole call *)
  chunk_s : float array; (* per-chunk wall time, length [chunks] *)
}

type t

(** [create ?instrument n]: [n] domains (clamped to [1, 128]; 1 =
    sequential). [instrument] is called after every *named* call made
    with this value; it adds two clock reads per chunk. *)
val create : ?instrument:(stats -> unit) -> int -> t

(** The process default count ({!set_num_domains}, initially 1) and no
    hook: what an entry point uses when its caller passes no value. *)
val default : unit -> t

(** Set the count {!default} hands out (clamped to [1, 128]). Values
    already created keep theirs. For front ends and test harnesses;
    library code passes values instead. *)
val set_num_domains : int -> unit

(** The domain count — also the number of chunks {!for_chunks} uses, so
    owners size per-chunk scratch by it. *)
val domains : t -> int

(** Total pool workers spawned so far in this process. *)
val spawned : unit -> int

(** Split [0, n) into one contiguous chunk per domain; [f ~chunk ~lo ~hi]
    runs once per non-empty chunk ([chunk < domains t] indexes
    per-chunk buffers). The partition is the same whether the call
    dispatches ([n >= grain], default 256) or runs inline. With one
    domain and no hook, [f ~chunk:0 ~lo:0 ~hi:n] is called directly. *)
val for_chunks :
  t -> ?grain:int -> ?name:string -> n:int -> (chunk:int -> lo:int -> hi:int -> unit) -> unit
