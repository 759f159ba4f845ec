(** Wirelength models: exact HPWL and the smooth weighted-average (WA)
    approximation with analytic gradients (Hsu-Chang-Balabanov), the
    wirelength objective of DREAMPlace.

    Per net and dimension, with a_i = exp(x_i / gamma):
      WA_max = sum(x_i a_i) / sum(a_i)
      d WA_max / d x_i = a_i (1 + (x_i - WA_max)/gamma) / sum(a_i)
    and symmetrically for WA_min with negated exponents. The net's smooth
    length is (WA_max - WA_min) per dimension, scaled by the net weight.

    The kernel walks the design's net->pin CSR directly and keeps all
    scratch (per-chunk exponent buffers, per-pin gradient slots, the
    cell->slot CSR) in a reusable {!ws} workspace. Every parallel body
    writes locations no other chunk writes, so the result does not
    depend on the domain count. Pure: fault injection happens in
    [Globalplace.run]. *)

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

(** Per-chunk scratch for the WA kernel, sized to the max net degree:
    pin positions in both dimensions and exponent buffers. *)
type lane = {
  xs : float array;
  ys : float array;
  ea : float array;
  eb : float array;
  mm : float array; (* xmin/xmax/ymin/ymax of the current net (slots 0-3) *)
}

(** Reusable scratch for {!wa_wirelength_grad_ws}. The net pass writes
    each pin's x/y gradient into its own slot (indexed by the pin's
    net-CSR position, x and y interleaved) and each net's x/y smooth
    extent into two per-net slots, so any partition of the nets writes
    the same values. The cell pass then sums each cell's slots in
    ascending net-CSR position: one summation order at every domain
    count. *)
type ws = {
  max_deg : int;
  par : Util.Parallel.t;
  lanes : lane array; (* one per chunk *)
  pin_grad : float array; (* [2p], [2p+1]: x/y gradient of net-CSR position p *)
  net_val : float array; (* [2n], [2n+1]: weighted x/y smooth extent of net n *)
  cell_pos_off : int array; (* CSR cell -> [pin_grad] x slots, length n_cells+1 *)
  cell_pos : int array; (* [2p] per net-CSR position p, ascending per cell *)
}

let make_lane max_deg =
  {
    xs = Array.make max_deg 0.0;
    ys = Array.make max_deg 0.0;
    ea = Array.make max_deg 0.0;
    eb = Array.make max_deg 0.0;
    mm = Array.make 4 0.0;
  }

(* Nets with fewer than two pins have no gradient and no value; leaving
   them out of the cell rows keeps a cell's sum free of [+0.0] terms,
   which would turn a [-0.0] gradient into [+0.0]. *)
let make_ws ~par (d : Design.t) =
  let nnets = Design.num_nets d and ncells = Design.num_cells d in
  let off = d.net_pin_off and ids = d.net_pin_ids and owner = d.pin_owner in
  let max_deg = ref 1 in
  let cell_pos_off = Array.make (ncells + 1) 0 in
  for n = 0 to nnets - 1 do
    let deg = off.(n + 1) - off.(n) in
    if deg > !max_deg then max_deg := deg;
    if deg > 1 then
      for p = off.(n) to off.(n + 1) - 1 do
        let c = owner.(ids.(p)) in
        cell_pos_off.(c + 1) <- cell_pos_off.(c + 1) + 1
      done
  done;
  for c = 0 to ncells - 1 do
    cell_pos_off.(c + 1) <- cell_pos_off.(c + 1) + cell_pos_off.(c)
  done;
  let cell_pos = Array.make cell_pos_off.(ncells) 0 in
  let fill = Array.sub cell_pos_off 0 ncells in
  (* Nets in ascending order, positions ascending within a net: every
     cell row comes out sorted. *)
  for n = 0 to nnets - 1 do
    if off.(n + 1) - off.(n) > 1 then
      for p = off.(n) to off.(n + 1) - 1 do
        let c = owner.(ids.(p)) in
        cell_pos.(fill.(c)) <- 2 * p;
        fill.(c) <- fill.(c) + 1
      done
  done;
  {
    max_deg = !max_deg;
    par;
    lanes = Array.init (Util.Parallel.domains par) (fun _ -> make_lane !max_deg);
    pin_grad = Array.make (2 * off.(nnets)) 0.0;
    net_val = Array.make (2 * nnets) 0.0;
    cell_pos_off;
    cell_pos;
  }

(* One dimension's WA pass over a net already gathered into [vs] (pin
   coordinates): writes each pin's weighted gradient into
   [pg.(2 * (pos + i) + dim)] (pin [i] of the net sits at net-CSR
   position [pos + i]) and the weighted smooth extent into
   [nv.(2 * net + dim)]. Slots rather than returned floats keep the
   sweep off the minor heap. The extrema come from [ln.mm] at
   [2 * dim]/[2 * dim + 1] and the weight is read from [net] — ints and
   arrays cross the call boundary for free, whereas every fresh float
   argument would be re-boxed per call. Indices into the lane are bounded
   by the net degree ≤ scratch size, so those loops use unchecked access;
   divisions by gamma and the exponent sums are folded into
   multiplications by hoisted inverses. *)
let wa_dim (d : Design.t) ln ~(vs : float array) ~n ~net ~pos ~dim ~gamma ~(pg : float array)
    ~(nv : float array) =
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
    pg.((2 * pos) + dim) <- w *. (gmax0 -. gmin0);
    pg.((2 * (pos + 1)) + dim) <- w *. (gmax1 -. gmin1);
    nv.((2 * net) + dim) <- w *. (wa_max -. wa_min)
  end
  else begin
    let vmin = Array.unsafe_get ln.mm (2 * dim) and vmax = Array.unsafe_get ln.mm ((2 * dim) + 1) in
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
      pg.((2 * (pos + i)) + dim) <- w *. (gmax -. gmin)
    done;
    nv.((2 * net) + dim) <- w *. (wa_max -. wa_min)
  end

(* Both dimensions of one net (CSR row [net] of d.net_pin_ids), fused:
   the CSR ids, owners, and pin positions are gathered once into the
   lane's scratch and shared by the x and y passes. The extrema land in
   [ln.mm] slots so {!wa_dim} reads them without a float crossing the
   call boundary. *)
let wa_net (d : Design.t) ln ~net ~gamma ~pg ~nv =
  let lo = d.net_pin_off.(net) and hi = d.net_pin_off.(net + 1) in
  let n = hi - lo in
  if n > 1 then begin
    let ids = d.net_pin_ids and owner = d.pin_owner in
    let px = d.x and py = d.y in
    let ox = d.pin_off_x and oy = d.pin_off_y in
    let xs = ln.xs and ys = ln.ys in
    let xmax = ref Float.neg_infinity and xmin = ref Float.infinity in
    let ymax = ref Float.neg_infinity and ymin = ref Float.infinity in
    for i = 0 to n - 1 do
      let pid = Array.unsafe_get ids (lo + i) in
      let c = Array.unsafe_get owner pid in
      let vx = Bigarray.Array1.unsafe_get px c +. Bigarray.Array1.unsafe_get ox pid in
      let vy = Bigarray.Array1.unsafe_get py c +. Bigarray.Array1.unsafe_get oy pid in
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
    wa_dim d ln ~vs:xs ~n ~net ~pos:lo ~dim:0 ~gamma ~pg ~nv;
    wa_dim d ln ~vs:ys ~n ~net ~pos:lo ~dim:1 ~gamma ~pg ~nv
  end

(** Smooth weighted wirelength of the whole design; adds its gradient
    w.r.t. cell centres into [gx]/[gy] (arrays over cells; fixed cells
    receive gradient too — callers zero or ignore them). Reuses the
    workspace's scratch: allocation-free once the lanes exist.

    Two parallel passes with disjoint writes: nets write their pins' and
    their own slots, then each cell adds its slots in ascending net-CSR
    position — the order a sequential net sweep scattering straight into
    [gx]/[gy] would use. The value is a left fold over the net slots in
    net order. Neither depends on the domain count. *)
let wa_wirelength_grad_ws ws (d : Design.t) ~gamma ~gx ~gy =
  let nnets = Design.num_nets d in
  let pg = ws.pin_grad and nv = ws.net_val in
  Util.Parallel.for_chunks ws.par ~grain:64 ~name:"wl.grad" ~n:nnets (fun ~chunk ~lo ~hi ->
      let ln = ws.lanes.(chunk) in
      for net = lo to hi - 1 do
        wa_net d ln ~net ~gamma ~pg ~nv
      done);
  (* [make_ws] builds [cell_pos_off] as a CSR over [cell_pos] whose
     entries are below [Array.length pg - 1], so the row loop reads
     unchecked. *)
  let off = ws.cell_pos_off and pos = ws.cell_pos in
  Util.Parallel.for_chunks ws.par ~grain:1024 ~name:"wl.grad.cells" ~n:(Design.num_cells d)
    (fun ~chunk:_ ~lo ~hi ->
      for c = lo to hi - 1 do
        let ax = ref gx.(c) and ay = ref gy.(c) in
        for k = off.(c) to off.(c + 1) - 1 do
          let p = Array.unsafe_get pos k in
          ax := !ax +. Array.unsafe_get pg p;
          ay := !ay +. Array.unsafe_get pg (p + 1)
        done;
        gx.(c) <- !ax;
        gy.(c) <- !ay
      done);
  (* Nets with < 2 pins leave their slots at +0.0, and adding +0.0 to a
     sum that starts at +0.0 never changes it. *)
  let total = ref 0.0 in
  for i = 0 to Array.length nv - 1 do
    total := !total +. Array.unsafe_get nv i
  done;
  !total

(** One-shot variant: builds a fresh workspace per call. Cold paths and
    tests; the optimizer loop holds a {!ws} instead. *)
let wa_wirelength_grad ~par (d : Design.t) ~gamma ~gx ~gy =
  wa_wirelength_grad_ws (make_ws ~par d) d ~gamma ~gx ~gy
