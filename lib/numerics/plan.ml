(** Plan-based real-even spectral engine (the Zhang-Sapatnekar rebuild of
    the electrostatics transforms).

    A plan precomputes, once per grid shape, everything the per-iteration
    hot loop would otherwise recompute or reallocate:

    - bit-reversal permutations and per-stage twiddle tables for the
      complex FFT of each line length (no trig and no [ref] cells in the
      butterflies, so the transform allocates nothing);
    - the Makhoul even/odd interleave permutation and the quarter-wave
      cosine/sine tables that turn an N-point complex FFT into a length-N
      DCT-II / DCT-III (the original seed engine used a length-2N complex
      FFT per line);
    - per-domain scratch buffers so line batches fan out across
      [Util.Parallel] without touching the allocator.

    Two real lines are packed into one complex FFT (line A in the real
    lane, line B in the imaginary lane) and separated afterwards through
    conjugate symmetry, so a 2D pass costs one N-point complex FFT per
    *pair* of lines — a ~4x arithmetic reduction over the seed
    one-2N-FFT-per-line scheme before counting the removed trig calls and
    allocations.

    Steady-state calls perform zero minor-heap allocation with one
    domain and no stats hook: the chunk bodies are built once per plan
    (the operands travel in mutable plan fields) and each pass calls its
    body directly. With more domains, or a hook, the only per-call
    allocation is [Util.Parallel]'s own dispatch wrapper.

    Numerical note: the [Oracle.Ref_numerics] differential gates bound
    every transform against direct O(n^2) summation. *)

let is_power_of_two n = n > 0 && n land (n - 1) = 0

let check_size n =
  if not (is_power_of_two n) then
    invalid_arg (Printf.sprintf "Plan: size must be a power of two, got %d" n)

(* ------------------------------------------------------------------ *)
(* Per-line-length tables.                                             *)

type line = {
  n : int;
  log2n : int;
  brev : int array; (* bit-reversal permutation, brev.(i) < n *)
  (* Forward butterfly twiddles e^{-2 pi i k / len}, all stages flattened:
     the stage with half-block size h occupies [h-1, 2h-2). Inverse
     transforms negate the imaginary part. *)
  twr : float array;
  twi : float array;
  (* Makhoul interleave: v.(i) = x.(mperm.(i)) packs the even-index
     samples first, odd-index samples reversed in the back half. *)
  mperm : int array;
  (* Quarter-wave factors cos/sin (pi k / 2n). *)
  ck : float array;
  sk : float array;
}

let make_line n =
  check_size n;
  let log2n =
    let rec go acc m = if m = 1 then acc else go (acc + 1) (m lsr 1) in
    go 0 n
  in
  let brev = Array.make n 0 in
  for i = 0 to n - 1 do
    let j = ref 0 in
    for b = 0 to log2n - 1 do
      if i land (1 lsl b) <> 0 then j := !j lor (1 lsl (log2n - 1 - b))
    done;
    brev.(i) <- !j
  done;
  let tw_len = max 1 (n - 1) in
  let twr = Array.make tw_len 1.0 and twi = Array.make tw_len 0.0 in
  for st = 0 to log2n - 1 do
    let half = 1 lsl st in
    let len = half * 2 in
    for k = 0 to half - 1 do
      let theta = -2.0 *. Float.pi *. float_of_int k /. float_of_int len in
      twr.(half - 1 + k) <- cos theta;
      twi.(half - 1 + k) <- sin theta
    done
  done;
  let mperm = Array.make n 0 in
  for i = 0 to (n / 2) - 1 do
    mperm.(i) <- 2 * i;
    mperm.(n - 1 - i) <- (2 * i) + 1
  done;
  let ck = Array.init n (fun k -> cos (Float.pi *. float_of_int k /. (2.0 *. float_of_int n))) in
  let sk = Array.init n (fun k -> sin (Float.pi *. float_of_int k /. (2.0 *. float_of_int n))) in
  (* The loops below read these tables unchecked. Lines are private to
     this module and never mutated after this point, so checking the
     permutations once here proves every table-driven index in range. *)
  let in_line j = j >= 0 && j < n in
  if not (Array.for_all in_line brev && Array.for_all in_line mperm) then
    invalid_arg "Numerics.Plan: corrupt line tables";
  { n; log2n; brev; twr; twi; mperm; ck; sk }

(* ---- entry checks for the unchecked loops ----

   Every loop below uses [Array.unsafe_get]/[unsafe_set]. Each one is
   allowed only behind a single O(1) check on entry that proves every
   index it touches is in range: a complex work lane holds at least [n]
   values, and a strided view [off + s*stride] (s < n) ends inside its
   array. Table indices (brev, mperm < n; twiddles < n - 1; ck/sk < n)
   are proved by [make_line]. *)

let check_lane (ln : line) (z : float array) =
  if Array.length z < ln.n then invalid_arg "Numerics.Plan: work lane shorter than the line"

let check_view (ln : line) (a : float array) off stride =
  if off < 0 || stride < 0 || off + ((ln.n - 1) * stride) >= Array.length a then
    invalid_arg "Numerics.Plan: strided line view out of range"

(* In-place complex FFT over the line's tables. [wsign] is +1.0 for the
   forward transform, -1.0 for the (unnormalised) inverse — the DCT-III
   path folds the 1/n into its pre-twiddle instead. Free of refs,
   closures and trig: nothing here allocates. *)
let fft_core (ln : line) (re : float array) (im : float array) ~wsign =
  check_lane ln re;
  check_lane ln im;
  let n = ln.n in
  let brev = ln.brev in
  for i = 0 to n - 1 do
    let j = Array.unsafe_get brev i in
    if i < j then begin
      let tr = Array.unsafe_get re i in
      Array.unsafe_set re i (Array.unsafe_get re j);
      Array.unsafe_set re j tr;
      let ti = Array.unsafe_get im i in
      Array.unsafe_set im i (Array.unsafe_get im j);
      Array.unsafe_set im j ti
    end
  done;
  let twr = ln.twr and twi = ln.twi in
  for st = 0 to ln.log2n - 1 do
    let half = 1 lsl st in
    let len = half * 2 in
    let off = half - 1 in
    let nblk = n lsr (st + 1) in
    for blk = 0 to nblk - 1 do
      let base = blk * len in
      for k = 0 to half - 1 do
        let wr = Array.unsafe_get twr (off + k) in
        let wi = wsign *. Array.unsafe_get twi (off + k) in
        let a = base + k in
        let b = a + half in
        let br = Array.unsafe_get re b and bi = Array.unsafe_get im b in
        let tr = (br *. wr) -. (bi *. wi) in
        let ti = (br *. wi) +. (bi *. wr) in
        let ar = Array.unsafe_get re a and ai = Array.unsafe_get im a in
        Array.unsafe_set re b (ar -. tr);
        Array.unsafe_set im b (ai -. ti);
        Array.unsafe_set re a (ar +. tr);
        Array.unsafe_set im a (ai +. ti)
      done
    done
  done

(* ---- packed-pair DCT-II (forward) ----

   Lines A and B (strided views) are Makhoul-permuted into the real and
   imaginary lanes of one complex buffer; after one forward FFT the two
   spectra are separated by conjugate symmetry and the quarter-wave
   twiddle projects out the DCT-II coefficients:
     X_k = Re(e^{-i pi k / 2n} V_k)
   with V the FFT of the permuted line. *)

let load_packed (ln : line) (zre : float array) (zim : float array) (a : float array) offa stra
    (b : float array) offb strb =
  check_lane ln zre;
  check_lane ln zim;
  check_view ln a offa stra;
  check_view ln b offb strb;
  let mperm = ln.mperm in
  for i = 0 to ln.n - 1 do
    let s = Array.unsafe_get mperm i in
    Array.unsafe_set zre i (Array.unsafe_get a (offa + (s * stra)));
    Array.unsafe_set zim i (Array.unsafe_get b (offb + (s * strb)))
  done

let load_single (ln : line) (zre : float array) (zim : float array) (a : float array) offa stra =
  check_lane ln zre;
  check_lane ln zim;
  check_view ln a offa stra;
  let mperm = ln.mperm in
  for i = 0 to ln.n - 1 do
    Array.unsafe_set zre i (Array.unsafe_get a (offa + (Array.unsafe_get mperm i * stra)));
    Array.unsafe_set zim i 0.0
  done

(* Unpack + quarter-wave twiddle into two strided outputs. *)
let dct_post (ln : line) (zre : float array) (zim : float array) (da : float array) doffa dstra
    (db : float array) doffb dstrb =
  check_lane ln zre;
  check_lane ln zim;
  check_view ln da doffa dstra;
  check_view ln db doffb dstrb;
  let n = ln.n in
  let mask = n - 1 in
  let ck = ln.ck and sk = ln.sk in
  for k = 0 to n - 1 do
    let k' = (n - k) land mask in
    let pr = Array.unsafe_get zre k and pq = Array.unsafe_get zre k' in
    let ir = Array.unsafe_get zim k and iq = Array.unsafe_get zim k' in
    let var = 0.5 *. (pr +. pq) and vai = 0.5 *. (ir -. iq) in
    let vbr = 0.5 *. (ir +. iq) and vbi = 0.5 *. (pq -. pr) in
    let c = Array.unsafe_get ck k and s = Array.unsafe_get sk k in
    Array.unsafe_set da (doffa + (k * dstra)) ((c *. var) +. (s *. vai));
    Array.unsafe_set db (doffb + (k * dstrb)) ((c *. vbr) +. (s *. vbi))
  done

(* Same, additionally multiplying coefficient k by strided per-mode
   factors — the Poisson mode scale fused into the unpack loop. *)
let dct_post_scaled (ln : line) (zre : float array) (zim : float array) (scale : float array)
    ioffa istr ioffb (da : float array) (db : float array) =
  check_lane ln zre;
  check_lane ln zim;
  check_view ln scale ioffa istr;
  check_view ln scale ioffb istr;
  check_lane ln da;
  check_lane ln db;
  let n = ln.n in
  let mask = n - 1 in
  let ck = ln.ck and sk = ln.sk in
  for k = 0 to n - 1 do
    let k' = (n - k) land mask in
    let pr = Array.unsafe_get zre k and pq = Array.unsafe_get zre k' in
    let ir = Array.unsafe_get zim k and iq = Array.unsafe_get zim k' in
    let var = 0.5 *. (pr +. pq) and vai = 0.5 *. (ir -. iq) in
    let vbr = 0.5 *. (ir +. iq) and vbi = 0.5 *. (pq -. pr) in
    let c = Array.unsafe_get ck k and s = Array.unsafe_get sk k in
    Array.unsafe_set da k
      (((c *. var) +. (s *. vai)) *. Array.unsafe_get scale (ioffa + (k * istr)));
    Array.unsafe_set db k
      (((c *. vbr) +. (s *. vbi)) *. Array.unsafe_get scale (ioffb + (k * istr)))
  done

(* ---- packed-pair DCT-III (inverse) ----

   Rebuild the two conjugate-symmetric spectra from the coefficients,
     V_k = e^{i pi k / 2n} (X_k - i X_{n-k})        (X_n := 0),
   pack them as Z = V_A + i V_B, run one inverse FFT (1/n folded into
   this pre-twiddle), and un-permute both real lanes. *)

let idct_pre (ln : line) (zre : float array) (zim : float array) (a : float array) offa stra
    (b : float array) offb strb =
  check_lane ln zre;
  check_lane ln zim;
  check_view ln a offa stra;
  check_view ln b offb strb;
  let n = ln.n in
  let inv_n = 1.0 /. float_of_int n in
  let ck = ln.ck and sk = ln.sk in
  Array.unsafe_set zre 0 (inv_n *. Array.unsafe_get a offa);
  Array.unsafe_set zim 0 (inv_n *. Array.unsafe_get b offb);
  for k = 1 to n - 1 do
    let xar = Array.unsafe_get a (offa + (k * stra))
    and xaq = Array.unsafe_get a (offa + ((n - k) * stra)) in
    let xbr = Array.unsafe_get b (offb + (k * strb))
    and xbq = Array.unsafe_get b (offb + ((n - k) * strb)) in
    let c = Array.unsafe_get ck k and s = Array.unsafe_get sk k in
    let var = (c *. xar) +. (s *. xaq) and vai = (s *. xar) -. (c *. xaq) in
    let vbr = (c *. xbr) +. (s *. xbq) and vbi = (s *. xbr) -. (c *. xbq) in
    Array.unsafe_set zre k (inv_n *. (var -. vbi));
    Array.unsafe_set zim k (inv_n *. (vai +. vbr))
  done

let store_packed (ln : line) (zre : float array) (zim : float array) (a : float array) offa stra
    (b : float array) offb strb =
  check_lane ln zre;
  check_lane ln zim;
  check_view ln a offa stra;
  check_view ln b offb strb;
  let mperm = ln.mperm in
  for i = 0 to ln.n - 1 do
    let s = Array.unsafe_get mperm i in
    Array.unsafe_set a (offa + (s * stra)) (Array.unsafe_get zre i);
    Array.unsafe_set b (offb + (s * strb)) (Array.unsafe_get zim i)
  done

let store_single (ln : line) (zre : float array) (a : float array) offa stra =
  check_lane ln zre;
  check_view ln a offa stra;
  let mperm = ln.mperm in
  for i = 0 to ln.n - 1 do
    Array.unsafe_set a (offa + (Array.unsafe_get mperm i * stra)) (Array.unsafe_get zre i)
  done

(* ------------------------------------------------------------------ *)
(* 2D plans.                                                           *)

type scratch = {
  zre : float array; (* complex work buffer, length max(rows, cols) *)
  zim : float array;
  xa : float array; (* coefficient staging for the fused column pass *)
  xb : float array; (* also the discard sink for odd-count tails *)
}

(* A chunk body over line pairs [lo, hi). *)
type body = chunk:int -> lo:int -> hi:int -> unit

type t = {
  rows : int;
  cols : int;
  row_line : line; (* lines of length [cols] *)
  col_line : line; (* lines of length [rows] *)
  zero : float array; (* read-only zero line, length max(rows, cols) *)
  par : Util.Parallel.t;
  scratch : scratch array; (* one per parallel chunk *)
  (* Operands of the pass in flight, read by the chunk bodies. *)
  mutable src : float array;
  mutable dst : float array;
  mutable scale : float array;
  (* Chunk bodies, built once in [create]: without flambda a closure
     built at each call site would allocate on every pass. *)
  row_fwd : body;
  row_inv : body;
  col_fwd : body;
  col_inv : body;
  col_filter : body;
}

let make_scratch m = { zre = Array.make m 0.0; zim = Array.make m 0.0; xa = Array.make m 0.0; xb = Array.make m 0.0 }

(* ---- line-pair passes ----

   A pass runs over pairs of adjacent lines of one direction: line l of
   [nlines] starts at [l * lstep] and steps by [estride] — rows are
   (lstep = cols, estride = 1), columns (lstep = 1, estride = cols). An
   odd last line runs alone, its B lane discarded into scratch. *)

let fwd_seg (ln : line) ~nlines ~lstep ~estride (src : float array) (dst : float array) lo hi
    (sc : scratch) =
  for p = lo to hi - 1 do
    let a = 2 * p * lstep in
    if (2 * p) + 1 < nlines then begin
      load_packed ln sc.zre sc.zim src a estride src (a + lstep) estride;
      fft_core ln sc.zre sc.zim ~wsign:1.0;
      dct_post ln sc.zre sc.zim dst a estride dst (a + lstep) estride
    end
    else begin
      load_single ln sc.zre sc.zim src a estride;
      fft_core ln sc.zre sc.zim ~wsign:1.0;
      dct_post ln sc.zre sc.zim dst a estride sc.xb 0 1
    end
  done

let inv_seg (ln : line) ~nlines ~lstep ~estride ~zero (src : float array) (dst : float array) lo
    hi (sc : scratch) =
  for p = lo to hi - 1 do
    let a = 2 * p * lstep in
    if (2 * p) + 1 < nlines then begin
      idct_pre ln sc.zre sc.zim src a estride src (a + lstep) estride;
      fft_core ln sc.zre sc.zim ~wsign:(-1.0);
      store_packed ln sc.zre sc.zim dst a estride dst (a + lstep) estride
    end
    else begin
      idct_pre ln sc.zre sc.zim src a estride zero 0 0;
      fft_core ln sc.zre sc.zim ~wsign:(-1.0);
      store_single ln sc.zre dst a estride
    end
  done

(* Fused column pass of the Poisson solve: forward column DCT, per-mode
   scale, inverse column DCT — one gather/scatter per column pair instead
   of three separate sweeps over the grid. *)
let col_filter_seg t (scale : float array) (buf : float array) lo hi (sc : scratch) =
  let ln = t.col_line in
  let cols = t.cols in
  for p = lo to hi - 1 do
    let c0 = 2 * p in
    if c0 + 1 < cols then begin
      load_packed ln sc.zre sc.zim buf c0 cols buf (c0 + 1) cols;
      fft_core ln sc.zre sc.zim ~wsign:1.0;
      dct_post_scaled ln sc.zre sc.zim scale c0 cols (c0 + 1) sc.xa sc.xb;
      idct_pre ln sc.zre sc.zim sc.xa 0 1 sc.xb 0 1;
      fft_core ln sc.zre sc.zim ~wsign:(-1.0);
      store_packed ln sc.zre sc.zim buf c0 cols buf (c0 + 1) cols
    end
    else begin
      load_single ln sc.zre sc.zim buf c0 cols;
      fft_core ln sc.zre sc.zim ~wsign:1.0;
      (* Single column: the B lane is a discard; scale indices stay in
         range by reusing column c0's stride. *)
      dct_post_scaled ln sc.zre sc.zim scale c0 cols c0 sc.xa sc.xb;
      idct_pre ln sc.zre sc.zim sc.xa 0 1 t.zero 0 0;
      fft_core ln sc.zre sc.zim ~wsign:(-1.0);
      store_single ln sc.zre buf c0 cols
    end
  done

(* ------------------------------------------------------------------ *)
(* Plans and pass drivers. Line pairs are batched through
   [Util.Parallel.for_chunks] with per-chunk scratch; with one domain
   and no hook each pass is a direct call of its body, so a
   steady-state transform performs zero minor-heap allocation. *)

let create ~par ~rows ~cols =
  check_size rows;
  check_size cols;
  let m = max rows cols in
  let row_line = make_line cols and col_line = make_line rows and zero = Array.make m 0.0 in
  let scratch = Array.init (Util.Parallel.domains par) (fun _ -> make_scratch m) in
  let rec t =
    {
      rows;
      cols;
      row_line;
      col_line;
      zero;
      par;
      scratch;
      src = [||];
      dst = [||];
      scale = [||];
      row_fwd =
        (fun ~chunk ~lo ~hi ->
          fwd_seg row_line ~nlines:rows ~lstep:cols ~estride:1 t.src t.dst lo hi scratch.(chunk));
      row_inv =
        (fun ~chunk ~lo ~hi ->
          inv_seg row_line ~nlines:rows ~lstep:cols ~estride:1 ~zero t.dst t.dst lo hi
            scratch.(chunk));
      col_fwd =
        (fun ~chunk ~lo ~hi ->
          fwd_seg col_line ~nlines:cols ~lstep:1 ~estride:cols t.dst t.dst lo hi scratch.(chunk));
      col_inv =
        (fun ~chunk ~lo ~hi ->
          inv_seg col_line ~nlines:cols ~lstep:1 ~estride:cols ~zero t.dst t.dst lo hi
            scratch.(chunk));
      col_filter = (fun ~chunk ~lo ~hi -> col_filter_seg t t.scale t.dst lo hi scratch.(chunk));
    }
  in
  t

let row_pairs t = (t.rows + 1) / 2

let col_pairs t = (t.cols + 1) / 2

let check_dims t src dst =
  if Array.length src <> t.rows * t.cols || Array.length dst <> t.rows * t.cols then
    invalid_arg "Numerics.Plan: array length does not match the planned grid"

let dct2_2d t ~src ~dst =
  check_dims t src dst;
  t.src <- src;
  t.dst <- dst;
  Util.Parallel.for_chunks t.par ~grain:4 ~name:"dct.rows" ~n:(row_pairs t) t.row_fwd;
  Util.Parallel.for_chunks t.par ~grain:4 ~name:"dct.cols" ~n:(col_pairs t) t.col_fwd

let idct2_2d t ~src ~dst =
  check_dims t src dst;
  if src != dst then Array.blit src 0 dst 0 (t.rows * t.cols);
  t.dst <- dst;
  Util.Parallel.for_chunks t.par ~grain:4 ~name:"dct.cols" ~n:(col_pairs t) t.col_inv;
  Util.Parallel.for_chunks t.par ~grain:4 ~name:"dct.rows" ~n:(row_pairs t) t.row_inv

let apply_filter t ~scale ~src ~dst =
  check_dims t src dst;
  if Array.length scale <> t.rows * t.cols then
    invalid_arg "Numerics.Plan: scale length does not match the planned grid";
  t.src <- src;
  t.dst <- dst;
  t.scale <- scale;
  Util.Parallel.for_chunks t.par ~grain:4 ~name:"dct.rows" ~n:(row_pairs t) t.row_fwd;
  Util.Parallel.for_chunks t.par ~grain:4 ~name:"poisson.filter" ~n:(col_pairs t) t.col_filter;
  Util.Parallel.for_chunks t.par ~grain:4 ~name:"dct.rows" ~n:(row_pairs t) t.row_inv

(* ---- 1D pair entry points (tests and benches exercise the packing
   directly; lines have length [cols t]) ---- *)

let dct2_pair t ~a ~b ~xa ~xb =
  let n = t.cols in
  if Array.length a <> n || Array.length b <> n || Array.length xa <> n || Array.length xb <> n
  then invalid_arg "Numerics.Plan.dct2_pair: line length mismatch";
  let sc = t.scratch.(0) in
  load_packed t.row_line sc.zre sc.zim a 0 1 b 0 1;
  fft_core t.row_line sc.zre sc.zim ~wsign:1.0;
  dct_post t.row_line sc.zre sc.zim xa 0 1 xb 0 1

let idct2_pair t ~xa ~xb ~a ~b =
  let n = t.cols in
  if Array.length a <> n || Array.length b <> n || Array.length xa <> n || Array.length xb <> n
  then invalid_arg "Numerics.Plan.idct2_pair: line length mismatch";
  let sc = t.scratch.(0) in
  idct_pre t.row_line sc.zre sc.zim xa 0 1 xb 0 1;
  fft_core t.row_line sc.zre sc.zim ~wsign:(-1.0);
  store_packed t.row_line sc.zre sc.zim a 0 1 b 0 1
