(** Divergence guards: finiteness checks over float state.

    One NaN or infinity anywhere in the optimizer state silently poisons
    every subsequent iterate (NaN propagates through every arithmetic op
    and every comparison is false), so the placement loop probes its
    gradient and iterate each iteration and rolls back on detection. Full
    scans are O(n) with early exit; [sampled_finite] probes a fixed-stride
    subset for hot paths where even the O(n) pass is unwelcome — a NaN
    that slips past a sample is still caught by the next full check
    (HPWL, which sums every coordinate, is itself a full check). *)

let is_finite = Float.is_finite

(** Every element is finite (neither NaN nor infinite). *)
let all_finite (a : float array) =
  let n = Array.length a in
  let ok = ref true in
  let i = ref 0 in
  while !ok && !i < n do
    if not (Float.is_finite (Array.unsafe_get a !i)) then ok := false;
    incr i
  done;
  !ok

(** [all_finite] over a float64 Bigarray (the SoA coordinate fields). *)
let all_finite_ba (a : (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t) =
  let n = Bigarray.Array1.dim a in
  let ok = ref true in
  let i = ref 0 in
  while !ok && !i < n do
    if not (Float.is_finite (Bigarray.Array1.unsafe_get a !i)) then ok := false;
    incr i
  done;
  !ok

(** Index of the first non-finite element, if any. *)
let first_nonfinite (a : float array) =
  let n = Array.length a in
  let rec go i =
    if i >= n then None else if not (Float.is_finite a.(i)) then Some i else go (i + 1)
  in
  go 0

let count_nonfinite (a : float array) =
  Array.fold_left (fun acc v -> if Float.is_finite v then acc else acc + 1) 0 a

let samples = 64

(** Probe at most [samples] elements on a fixed stride starting at
    [offset] (rotate the offset across calls to sweep the array over
    time). Falls back to the full scan for short arrays. A [true] result
    is *not* a proof of finiteness — pair with a periodic full check. *)
let sampled_finite ?(offset = 0) (a : float array) =
  let n = Array.length a in
  if n <= 4 * samples then all_finite a
  else begin
    let stride = n / samples in
    let ok = ref true in
    let k = ref 0 in
    while !ok && !k < samples do
      let i = (offset + (!k * stride)) mod n in
      if not (Float.is_finite a.(i)) then ok := false;
      incr k
    done;
    !ok
  end
