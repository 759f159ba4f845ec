(** Plan-based real-even spectral engine.

    A plan is created once per grid shape and reused across solves: it
    precomputes bit-reversal permutations, per-stage FFT twiddles, the
    Makhoul interleave permutation and quarter-wave cosine tables for
    both line lengths, and owns per-domain scratch buffers. Two real
    lines are packed into one complex FFT (Makhoul's N-point DCT via the
    even/odd interleave), so a 2D DCT costs one N-point complex FFT per
    *pair* of lines instead of one 2N-point FFT per
    line.

    A plan keeps the [Util.Parallel.t] it was created with: its
    per-chunk scratch is sized from it once, and its chunk bodies are
    built once, so every transform runs one code path. Steady-state
    transforms over an existing plan perform zero minor-heap allocation
    on a single domain without a stats hook; otherwise the only
    per-call allocation is [Util.Parallel]'s dispatch wrapper (the
    passes are named [dct.rows] / [dct.cols] / [poisson.filter], so
    [par.*] metrics stay alive).

    The [Oracle.Ref_numerics] differential gates bound every transform
    against direct summation. *)

type t

val is_power_of_two : int -> bool

(** Raises [Invalid_argument] unless the size is a power of two; the
    message names the offending size. *)
val check_size : int -> unit

(** [create ~par ~rows ~cols] builds a plan for row-major [rows*cols]
    grids whose 2D passes fan out over [par]. Both dimensions must be
    powers of two (raises [Invalid_argument] otherwise, naming the
    offending size). *)
val create : par:Util.Parallel.t -> rows:int -> cols:int -> t

(** 2D DCT-II of [src] into [dst] (both row-major [rows*cols]; [src] is
    not modified unless [src == dst], which is allowed). *)
val dct2_2d : t -> src:float array -> dst:float array -> unit

(** 2D DCT-III (exact inverse of {!dct2_2d}) of [src] into [dst];
    [src == dst] is allowed. *)
val idct2_2d : t -> src:float array -> dst:float array -> unit

(** [apply_filter t ~scale ~src ~dst] computes
    [dst = IDCT2(scale .* DCT2(src))] with the per-mode multiply fused
    into the column pass — the whole Poisson solve in three sweeps with
    no intermediate coefficient grid. [scale] is row-major [rows*cols];
    [src == dst] is allowed. *)
val apply_filter : t -> scale:float array -> src:float array -> dst:float array -> unit

(** {2 1D packed-pair entry points}

    Direct access to the two-lines-per-FFT packing over lines of length
    [cols t] — exercised by the differential tests and the bench. *)

(** DCT-II of lines [a] and [b] into [xa] and [xb] (all length
    [cols t]). *)
val dct2_pair : t -> a:float array -> b:float array -> xa:float array -> xb:float array -> unit

(** DCT-III (inverse of {!dct2_pair}) of [xa]/[xb] into [a]/[b]. *)
val idct2_pair : t -> xa:float array -> xb:float array -> a:float array -> b:float array -> unit
