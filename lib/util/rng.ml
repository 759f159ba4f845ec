(** Deterministic pseudo-random number generator (SplitMix64).

    Every stochastic component of the project takes an explicit [Rng.t] so
    that benchmark generation and placement flows are reproducible
    run-to-run, independent of OCaml's global [Random] state. *)

type t = { mutable state : int64 }

let create seed = { state = Int64.of_int seed }

let copy t = { state = t.state }

let golden_gamma = 0x9E3779B97F4A7C15L

(* SplitMix64 step: add the golden gamma, then finalize with the
   Stafford variant-13 mixer. *)
let next_int64 t =
  t.state <- Int64.add t.state golden_gamma;
  let z = t.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(** [int t bound] is uniform in [0, bound). Requires [bound > 0]. *)
let int t bound =
  assert (bound > 0);
  (* Keep 62 bits so Int64.to_int (63-bit native ints) stays positive. *)
  let r = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2) in
  r mod bound

(** [float t bound] is uniform in [0, bound). *)
let float t bound =
  let r = Int64.to_float (Int64.shift_right_logical (next_int64 t) 11) in
  r /. 9007199254740992.0 *. bound

(** Uniform in [lo, hi). *)
let range t lo hi =
  assert (hi > lo);
  lo + int t (hi - lo)

let float_range t lo hi = lo +. float t (hi -. lo)

let bool t = Int64.logand (next_int64 t) 1L = 1L

(** Bernoulli trial with probability [p]. *)
let bernoulli t p = float t 1.0 < p

(** Standard normal via Box-Muller. *)
let normal t =
  let u1 = Float.max 1e-300 (float t 1.0) in
  let u2 = float t 1.0 in
  sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2)

let gaussian t ~mean ~stddev = mean +. (stddev *. normal t)

(** Random permutation index array of length [n] (Fisher-Yates). *)
let permutation t n =
  let a = Array.init n (fun i -> i) in
  for i = n - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done;
  a

(** Split off an independent generator (SplitMix's split). *)
let split t = { state = next_int64 t }

(** Pick a uniformly random element of a non-empty array. *)
let choose t a =
  assert (Array.length a > 0);
  a.(int t (Array.length a))
