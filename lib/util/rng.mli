(** Deterministic pseudo-random number generator (SplitMix64).

    Every stochastic component of the project takes an explicit [t] so
    benchmark generation and placement flows are reproducible run-to-run,
    independent of OCaml's global [Random] state. *)

type t

(** [create seed] starts a stream; equal seeds give equal streams. *)
val create : int -> t

(** Independent copy: advancing the copy does not affect the original. *)
val copy : t -> t

(** Raw 64-bit output (primarily for tests). *)
val next_int64 : t -> int64

(** [int t bound] is uniform in [0, bound). Requires [bound > 0]. *)
val int : t -> int -> int

(** [float t bound] is uniform in [0, bound). *)
val float : t -> float -> float

(** [range t lo hi] is uniform in [lo, hi). Requires [hi > lo]. *)
val range : t -> int -> int -> int

(** [float_range t lo hi] is uniform in [lo, hi). *)
val float_range : t -> float -> float -> float

val bool : t -> bool

(** [bernoulli t p] is true with probability [p]. *)
val bernoulli : t -> float -> bool

(** Standard normal deviate (Box-Muller). *)
val normal : t -> float

val gaussian : t -> mean:float -> stddev:float -> float

(** Uniformly random permutation of [0 .. n-1] (Fisher-Yates). *)
val permutation : t -> int -> int array

(** Split off a statistically independent generator. *)
val split : t -> t

(** Uniform element of a non-empty array. *)
val choose : t -> 'a array -> 'a
