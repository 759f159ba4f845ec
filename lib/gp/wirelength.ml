(** Wirelength models: exact HPWL and the smooth weighted-average (WA)
    approximation with analytic gradients (Hsu-Chang-Balabanov), the
    wirelength objective of DREAMPlace.

    Per net and dimension, with a_i = exp(x_i / gamma):
      WA_max = sum(x_i a_i) / sum(a_i)
      d WA_max / d x_i = a_i (1 + (x_i - WA_max)/gamma) / sum(a_i)
    and symmetrically for WA_min with negated exponents. The net's smooth
    length is (WA_max - WA_min) per dimension, scaled by the net weight.

    The kernel walks the design's net->pin CSR directly and keeps all
    scratch (per-pin exponent buffers, per-chunk gradient accumulators) in
    a reusable {!ws} workspace, so steady-state Nesterov iterations do not
    allocate. Pure: fault injection happens in [Globalplace.run]. *)

open Netlist

(** Exact weighted HPWL (net weights applied) — the objective value.
    One scratch array for the whole sweep ([Design.net_hpwl_into] slots
    0-4, slot 5 accumulates): refs or per-net wrappers would allocate
    per net. *)
let weighted_hpwl (d : Design.t) =
  let m = Array.make 6 0.0 in
  for n = 0 to Design.num_nets d - 1 do
    Design.net_hpwl_into d n m;
    m.(5) <- m.(5) +. (d.net_weight.{n} *. m.(4))
  done;
  m.(5)

(** Per-worker scratch for the WA kernel, sized to the max net degree:
    pin positions in both dimensions, owner cells (cached once per net
    for the gradient scatter), and exponent buffers. *)
type lane = {
  xs : float array;
  ys : float array;
  cells : int array;
  ea : float array;
  eb : float array;
  mm : float array; (* xmin/xmax/ymin/ymax of the current net (slots 0-3) *)
  gcx : float array; (* per-chunk gradient accumulators (parallel path; *)
  gcy : float array; (* empty in the sequential lane) *)
}

(** Reusable scratch for {!wa_wirelength_grad_ws}: a sequential lane plus
    per-chunk lanes with private gradient accumulators for the parallel
    path (grown on demand when the chunk count changes). *)
type ws = {
  max_deg : int;
  seq : lane;
  mutable chunks : lane array;
  mutable totals : float array; (* per-chunk smooth-value partial sums *)
}

let make_lane ~max_deg ~ncells =
  {
    xs = Array.make max_deg 0.0;
    ys = Array.make max_deg 0.0;
    cells = Array.make max_deg 0;
    ea = Array.make max_deg 0.0;
    eb = Array.make max_deg 0.0;
    mm = Array.make 4 0.0;
    gcx = Array.make ncells 0.0;
    gcy = Array.make ncells 0.0;
  }

let make_ws (d : Design.t) =
  let max_deg = ref 1 in
  for n = 0 to Design.num_nets d - 1 do
    let deg = Design.net_degree d n in
    if deg > !max_deg then max_deg := deg
  done;
  let max_deg = !max_deg in
  { max_deg; seq = make_lane ~max_deg ~ncells:0; chunks = [||]; totals = Array.make 1 0.0 }

(* One dimension's WA pass over a net already gathered into [vs] (pin
   coordinates) / [ln.cells] (owning cells): accumulates the gradient
   into [grad] at the owning cells scaled by the net weight, and adds
   the weighted smooth extent into [tacc.(ti)] — a float-array slot
   rather than a returned float, so the sweep stays off the minor heap.
   The extrema come from [ln.mm] at [base]/[base+1] and the weight is
   read from [net] — ints and arrays cross the call boundary for free,
   whereas every fresh float argument would be re-boxed per call (the
   kernel's old steady-state allocation). Indices are bounded by the net
   degree ≤ scratch size, so the loops use unchecked access; divisions
   by gamma and the exponent sums are folded into multiplications by
   hoisted inverses. *)
let wa_dim (d : Design.t) ln ~(vs : float array) ~n ~net ~base ~gamma ~(grad : float array)
    ~(tacc : float array) ~ti =
  let inv_gamma = 1.0 /. gamma in
  let w = d.net_weight.{net} in
  if n = 2 then begin
    (* Two-pin nets dominate real netlists. With two pins the extreme
       pin's exponent is exp(0) = 1 exactly, and the other pin's
       exponent is the same value e = exp((lo-hi)/gamma) on all four
       sides (max and min, both pins), so one [exp] replaces four. The
       arithmetic below substitutes 1.0 and e into the general formulas
       verbatim — bit-identical results, IEEE guarantees exp(±0) = 1
       and x *. 1.0 = x. *)
    let v0 = Array.unsafe_get vs 0 and v1 = Array.unsafe_get vs 1 in
    let swap = v1 > v0 in
    let hi = if swap then v1 else v0 in
    let lo = if swap then v0 else v1 in
    let e = exp ((lo -. hi) *. inv_gamma) in
    let a0 = if swap then e else 1.0 in
    let a1 = if swap then 1.0 else e in
    let b0 = if swap then 1.0 else e in
    let b1 = if swap then e else 1.0 in
    let inv_s = 1.0 /. (1.0 +. e) in
    let wa_max = ((v0 *. a0) +. (v1 *. a1)) *. inv_s in
    let wa_min = ((v0 *. b0) +. (v1 *. b1)) *. inv_s in
    let gmax0 = a0 *. (1.0 +. ((v0 -. wa_max) *. inv_gamma)) *. inv_s in
    let gmin0 = b0 *. (1.0 -. ((v0 -. wa_min) *. inv_gamma)) *. inv_s in
    let gmax1 = a1 *. (1.0 +. ((v1 -. wa_max) *. inv_gamma)) *. inv_s in
    let gmin1 = b1 *. (1.0 -. ((v1 -. wa_min) *. inv_gamma)) *. inv_s in
    let c0 = w *. (gmax0 -. gmin0) in
    let c1 = w *. (gmax1 -. gmin1) in
    let cell0 = Array.unsafe_get ln.cells 0 and cell1 = Array.unsafe_get ln.cells 1 in
    grad.(cell0) <- grad.(cell0) +. c0;
    grad.(cell1) <- grad.(cell1) +. c1;
    tacc.(ti) <- tacc.(ti) +. (w *. (wa_max -. wa_min))
  end
  else begin
    let vmin = Array.unsafe_get ln.mm base and vmax = Array.unsafe_get ln.mm (base + 1) in
    let ea = ln.ea and eb = ln.eb in
    let s_max = ref 0.0 and t_max = ref 0.0 in
    let s_min = ref 0.0 and t_min = ref 0.0 in
    for i = 0 to n - 1 do
      let v = Array.unsafe_get vs i in
      let a = exp ((v -. vmax) *. inv_gamma) in
      let b = exp ((vmin -. v) *. inv_gamma) in
      Array.unsafe_set ea i a;
      Array.unsafe_set eb i b;
      s_max := !s_max +. a;
      t_max := !t_max +. (v *. a);
      s_min := !s_min +. b;
      t_min := !t_min +. (v *. b)
    done;
    let inv_smax = 1.0 /. !s_max and inv_smin = 1.0 /. !s_min in
    let wa_max = !t_max *. inv_smax and wa_min = !t_min *. inv_smin in
    for i = 0 to n - 1 do
      let v = Array.unsafe_get vs i in
      let gmax = Array.unsafe_get ea i *. (1.0 +. ((v -. wa_max) *. inv_gamma)) *. inv_smax in
      let gmin = Array.unsafe_get eb i *. (1.0 -. ((v -. wa_min) *. inv_gamma)) *. inv_smin in
      let cell = Array.unsafe_get ln.cells i in
      let contrib = w *. (gmax -. gmin) in
      grad.(cell) <- grad.(cell) +. contrib
    done;
    tacc.(ti) <- tacc.(ti) +. (w *. (wa_max -. wa_min))
  end

(* Both dimensions of one net (CSR row [net] of d.net_pin_ids), fused:
   the CSR ids, owners, and pin positions are gathered once into the
   lane's scratch and shared by the x and y passes — the split-dimension
   version walked the CSR and the owner indirection twice per net. The
   extrema land in [ln.mm] slots so {!wa_dim} reads them without a float
   crossing the call boundary. *)
let wa_net (d : Design.t) ln ~net ~gamma ~(gx : float array) ~(gy : float array)
    ~(tacc : float array) ~ti =
  let lo = d.net_pin_off.(net) and hi = d.net_pin_off.(net + 1) in
  let n = hi - lo in
  if n > 1 then begin
    let ids = d.net_pin_ids and owner = d.pin_owner in
    let px = d.x and py = d.y in
    let ox = d.pin_off_x and oy = d.pin_off_y in
    let xs = ln.xs and ys = ln.ys and cells = ln.cells in
    let xmax = ref Float.neg_infinity and xmin = ref Float.infinity in
    let ymax = ref Float.neg_infinity and ymin = ref Float.infinity in
    for i = 0 to n - 1 do
      let pid = Array.unsafe_get ids (lo + i) in
      let c = Array.unsafe_get owner pid in
      let vx = Bigarray.Array1.unsafe_get px c +. Bigarray.Array1.unsafe_get ox pid in
      let vy = Bigarray.Array1.unsafe_get py c +. Bigarray.Array1.unsafe_get oy pid in
      Array.unsafe_set cells i c;
      Array.unsafe_set xs i vx;
      Array.unsafe_set ys i vy;
      if vx > !xmax then xmax := vx;
      if vx < !xmin then xmin := vx;
      if vy > !ymax then ymax := vy;
      if vy < !ymin then ymin := vy
    done;
    ln.mm.(0) <- !xmin;
    ln.mm.(1) <- !xmax;
    ln.mm.(2) <- !ymin;
    ln.mm.(3) <- !ymax;
    wa_dim d ln ~vs:xs ~n ~net ~base:0 ~gamma ~grad:gx ~tacc ~ti;
    wa_dim d ln ~vs:ys ~n ~net ~base:2 ~gamma ~grad:gy ~tacc ~ti
  end

(* Sequential sweep over a net range, accumulating gradients into
   [gx]/[gy] and the weighted smooth total into [tacc.(ti)]. *)
let sweep (d : Design.t) ln ~lo_net ~hi_net ~gamma ~gx ~gy ~tacc ~ti =
  for n = lo_net to hi_net - 1 do
    wa_net d ln ~net:n ~gamma ~gx ~gy ~tacc ~ti
  done

(** Smooth weighted wirelength of the whole design; adds its gradient
    w.r.t. cell centres into [gx]/[gy] (arrays over cells; fixed cells
    receive gradient too — callers zero or ignore them). Reuses the
    workspace's scratch: allocation-free once the chunk buffers exist.

    Parallelised over nets when [Util.Parallel] domains are enabled: each
    chunk accumulates into private buffers merged afterwards (cells are
    shared across nets, so direct accumulation would race). *)
let wa_wirelength_grad_ws ws (d : Design.t) ~gamma ~gx ~gy =
  let nnets = Design.num_nets d in
  let nchunks = Util.Parallel.chunk_count ~n:nnets in
  if nchunks = 1 then begin
    ws.totals.(0) <- 0.0;
    sweep d ws.seq ~lo_net:0 ~hi_net:nnets ~gamma ~gx ~gy ~tacc:ws.totals ~ti:0;
    ws.totals.(0)
  end
  else begin
    let nc = Design.num_cells d in
    if Array.length ws.chunks < nchunks then begin
      ws.chunks <- Array.init nchunks (fun _ -> make_lane ~max_deg:ws.max_deg ~ncells:nc);
      ws.totals <- Array.make nchunks 0.0
    end;
    Array.fill ws.totals 0 (Array.length ws.totals) 0.0;
    Util.Parallel.for_chunks ~grain:64 ~name:"wl.grad" ~n:nnets (fun ~chunk ~lo ~hi ->
        let ln = ws.chunks.(chunk) in
        sweep d ln ~lo_net:lo ~hi_net:hi ~gamma ~gx:ln.gcx ~gy:ln.gcy ~tacc:ws.totals ~ti:chunk);
    let total = ref 0.0 in
    for k = 0 to nchunks - 1 do
      total := !total +. ws.totals.(k);
      ws.totals.(k) <- 0.0
    done;
    (* Merge per-chunk gradients in chunk order (deterministic) and zero
       the buffers for the next call. *)
    Util.Parallel.for_ ~name:"wl.grad.merge" nc (fun c ->
        for k = 0 to nchunks - 1 do
          let ln = ws.chunks.(k) in
          gx.(c) <- gx.(c) +. ln.gcx.(c);
          gy.(c) <- gy.(c) +. ln.gcy.(c);
          ln.gcx.(c) <- 0.0;
          ln.gcy.(c) <- 0.0
        done);
    !total
  end

(** One-shot variant: builds a fresh workspace per call. Cold paths and
    tests; the optimizer loop holds a {!ws} instead. *)
let wa_wirelength_grad (d : Design.t) ~gamma ~gx ~gy =
  wa_wirelength_grad_ws (make_ws d) d ~gamma ~gx ~gy
