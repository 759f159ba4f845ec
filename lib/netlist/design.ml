(** The circuit database as a struct-of-arrays: every cell/pin/net field
    lives in its own flat array indexed by id, adjacency is CSR (offsets
    plus flat id arrays), and names sit in side tables off the hot path.

    Float fields are Bigarray [float64] vectors so placement and timing
    kernels read/write them zero-copy (the same layout DREAMPlace-style
    placers feed their kernels); int fields are plain [int array]s. There
    are no per-cell/pin/net records to chase and nothing in a steady-state
    kernel loop boxes a float. *)

type farr = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

let farr_create n : farr = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout n

let farr_of_array (a : float array) : farr =
  let f = farr_create (Array.length a) in
  Array.iteri (fun i v -> f.{i} <- v) a;
  f

let farr_copy (a : farr) : farr =
  let f = farr_create (Bigarray.Array1.dim a) in
  Bigarray.Array1.blit a f;
  f

let farr_blit (src : farr) (dst : farr) = Bigarray.Array1.blit src dst

let farr_fill (a : farr) v = Bigarray.Array1.fill a v

type kind = Logic | Input_pad | Output_pad | Blockage

type dir = In | Out

type t = {
  name : string;
  die : Geom.Rect.t;
  row_height : float;
  mutable clock_period : float; (* calibrated after generation *)
  mutable input_delay : float; (* SDC-like: arrival offset at input pads *)
  mutable output_delay : float; (* SDC-like: margin required at output pads *)
  mutable r_per_unit : float; (* wire resistance per unit length *)
  mutable c_per_unit : float; (* wire capacitance per unit length *)
  n_cells : int;
  n_pins : int;
  n_nets : int;
  (* -- cell fields, indexed by cell id -- *)
  x : farr; (* cell centre coordinates, mutable placement state *)
  y : farr;
  w : farr;
  h : farr;
  movable : Bytes.t; (* '\001' when movable *)
  kinds : Bytes.t; (* kind code, see [kind_code] *)
  lib_idx : int array; (* index into [libs]; -1 for pads/blockages *)
  libs : Libcell.t array; (* deduplicated library side table *)
  cell_pin_off : int array; (* CSR cell->pins, length n_cells+1 *)
  cell_pin_ids : int array;
  (* -- pin fields, indexed by pin id -- *)
  pin_owner : int array;
  pin_net : int array;
  pin_dirs : Bytes.t; (* 0 = In, 1 = Out *)
  pin_off_x : farr; (* offset from the owner cell's centre *)
  pin_off_y : farr;
  pin_cap : farr; (* input capacitance; 0 for outputs *)
  (* -- net fields, indexed by net id -- *)
  net_driver : int array; (* pin id, -1 when undriven *)
  net_weight : farr; (* net weight in the wirelength objective *)
  net_pin_off : int array; (* CSR net->pins, length n_nets+1; driver first *)
  net_pin_ids : int array;
  (* -- names: side tables, never touched by kernels -- *)
  cell_names : string array;
  pin_names : string array;
  net_names : string array;
}

let num_cells t = t.n_cells

let num_pins t = t.n_pins

let num_nets t = t.n_nets

(* ---- kind / dir codecs ----------------------------------------------- *)

let kind_code = function
  | Logic -> '\000'
  | Input_pad -> '\001'
  | Output_pad -> '\002'
  | Blockage -> '\003'

let kind t i =
  match Bytes.unsafe_get t.kinds i with
  | '\000' -> Logic
  | '\001' -> Input_pad
  | '\002' -> Output_pad
  | _ -> Blockage

let dir_code = function In -> '\000' | Out -> '\001'

let pin_dir t p = if Bytes.unsafe_get t.pin_dirs p = '\000' then In else Out

let is_movable t i = Bytes.unsafe_get t.movable i <> '\000'

let is_ff t i =
  let li = t.lib_idx.(i) in
  li >= 0 && t.libs.(li).Libcell.is_ff

let libcell t i =
  let li = t.lib_idx.(i) in
  if li < 0 then invalid_arg "Design.libcell: cell has no library cell";
  t.libs.(li)

let cell_name t i = t.cell_names.(i)

let pin_name t p = t.pin_names.(p)

let net_name t n = t.net_names.(n)

(** Physical position of a pin under the current placement. *)
let pin_x t p = t.x.{t.pin_owner.(p)} +. t.pin_off_x.{p}

let pin_y t p = t.y.{t.pin_owner.(p)} +. t.pin_off_y.{p}

let pin_pos t p = Geom.Point.make (pin_x t p) (pin_y t p)

let cell_rect t id =
  Geom.Rect.make
    ~xl:(t.x.{id} -. (t.w.{id} /. 2.0))
    ~yl:(t.y.{id} -. (t.h.{id} /. 2.0))
    ~xh:(t.x.{id} +. (t.w.{id} /. 2.0))
    ~yh:(t.y.{id} +. (t.h.{id} /. 2.0))

(* ---- adjacency -------------------------------------------------------- *)

let cell_num_pins t i = t.cell_pin_off.(i + 1) - t.cell_pin_off.(i)

let iter_cell_pins t i f =
  for k = t.cell_pin_off.(i) to t.cell_pin_off.(i + 1) - 1 do
    f t.cell_pin_ids.(k)
  done

let cell_pins t i =
  Array.sub t.cell_pin_ids t.cell_pin_off.(i) (cell_num_pins t i)

let net_degree t n = t.net_pin_off.(n + 1) - t.net_pin_off.(n)

let iter_net_pins t n f =
  for k = t.net_pin_off.(n) to t.net_pin_off.(n + 1) - 1 do
    f t.net_pin_ids.(k)
  done

(** Pin ids of a net: driver first, then sinks in connection order. *)
let net_pins t n = Array.sub t.net_pin_ids t.net_pin_off.(n) (net_degree t n)

let net_num_sinks t n = net_degree t n - 1

(** Sink [k] (0-based, connection order) of net [n]. *)
let net_sink t n k = t.net_pin_ids.(t.net_pin_off.(n) + 1 + k)

let iter_net_sinks t n f =
  for k = t.net_pin_off.(n) + 1 to t.net_pin_off.(n + 1) - 1 do
    f t.net_pin_ids.(k)
  done

(* ---- aggregates ------------------------------------------------------- *)

let movable_ids t =
  let acc = ref [] in
  for i = t.n_cells - 1 downto 0 do
    if is_movable t i then acc := i :: !acc
  done;
  !acc

let num_movable t =
  let n = ref 0 in
  for i = 0 to t.n_cells - 1 do
    if is_movable t i then incr n
  done;
  !n

let movable_area t =
  let a = ref 0.0 in
  for i = 0 to t.n_cells - 1 do
    if is_movable t i then a := !a +. (t.w.{i} *. t.h.{i})
  done;
  !a

(** HPWL of one net into caller-owned scratch [m] (≥ 5 slots; the result
    is also left in [m.(4)]). The running min/max live in float-array
    slots — they stay unboxed, whereas float [ref] updates box one float
    each, per pin, and a per-call scratch array would allocate per net on
    the evaluate path. 0 for degenerate nets. *)
let net_hpwl_into t n (m : float array) =
  let lo = t.net_pin_off.(n) and hi = t.net_pin_off.(n + 1) in
  if hi <= lo then m.(4) <- 0.0
  else begin
    m.(0) <- Float.infinity;
    m.(1) <- Float.neg_infinity;
    m.(2) <- Float.infinity;
    m.(3) <- Float.neg_infinity;
    for k = lo to hi - 1 do
      let p = t.net_pin_ids.(k) in
      let px = t.x.{t.pin_owner.(p)} +. t.pin_off_x.{p} in
      let py = t.y.{t.pin_owner.(p)} +. t.pin_off_y.{p} in
      if px < m.(0) then m.(0) <- px;
      if px > m.(1) then m.(1) <- px;
      if py < m.(2) then m.(2) <- py;
      if py > m.(3) then m.(3) <- py
    done;
    m.(4) <- (if m.(1) < m.(0) then 0.0 else m.(1) -. m.(0) +. (m.(3) -. m.(2)))
  end

(** HPWL of one net under the current placement (allocating wrapper). *)
let net_hpwl t n =
  let m = Array.make 5 0.0 in
  net_hpwl_into t n m;
  m.(4)

(** Total HPWL (unweighted) — the contest wirelength metric. One scratch
    array for the whole sweep; [m.(5)] accumulates. *)
let total_hpwl t =
  let m = Array.make 6 0.0 in
  for n = 0 to t.n_nets - 1 do
    net_hpwl_into t n m;
    m.(5) <- m.(5) +. m.(4)
  done;
  m.(5)

(** Copy of the current placement, for snapshots / restores. *)
let snapshot t = (farr_copy t.x, farr_copy t.y)

let restore t ((sx : farr), (sy : farr)) =
  farr_blit sx t.x;
  farr_blit sy t.y

(** Clamp every movable cell centre so the cell stays inside the die. *)
let clamp_movable t =
  let die = t.die in
  for i = 0 to t.n_cells - 1 do
    if is_movable t i then begin
      let hw = t.w.{i} /. 2.0 and hh = t.h.{i} /. 2.0 in
      t.x.{i} <- Float.max (die.xl +. hw) (Float.min (die.xh -. hw) t.x.{i});
      t.y.{i} <- Float.max (die.yl +. hh) (Float.min (die.yh -. hh) t.y.{i})
    end
  done

let reset_net_weights t = farr_fill t.net_weight 1.0

(* ---- memory footprint ------------------------------------------------- *)

type footprint = {
  cell_bytes : int;
  pin_bytes : int;
  net_bytes : int;
  adjacency_bytes : int;
  name_bytes : int;
  total_bytes : int;
}

(* Sizes are the payloads' heap footprints: 8 bytes per float64/int word,
   strings rounded up to the word with their header. *)
let footprint t =
  let wb = 8 in
  let farr_b (a : farr) = wb * Bigarray.Array1.dim a in
  let iarr_b (a : int array) = wb * Array.length a in
  let bytes_b (b : Bytes.t) = Bytes.length b in
  let str_b s = wb * (1 + ((String.length s + wb) / wb)) in
  let strs_b a = Array.fold_left (fun acc s -> acc + str_b s) (wb * Array.length a) a in
  let cell_bytes =
    farr_b t.x + farr_b t.y + farr_b t.w + farr_b t.h + bytes_b t.movable + bytes_b t.kinds
    + iarr_b t.lib_idx
  in
  let pin_bytes =
    iarr_b t.pin_owner + iarr_b t.pin_net + bytes_b t.pin_dirs + farr_b t.pin_off_x
    + farr_b t.pin_off_y + farr_b t.pin_cap
  in
  let net_bytes = iarr_b t.net_driver + farr_b t.net_weight in
  let adjacency_bytes =
    iarr_b t.cell_pin_off + iarr_b t.cell_pin_ids + iarr_b t.net_pin_off + iarr_b t.net_pin_ids
  in
  let name_bytes = strs_b t.cell_names + strs_b t.pin_names + strs_b t.net_names in
  {
    cell_bytes;
    pin_bytes;
    net_bytes;
    adjacency_bytes;
    name_bytes;
    total_bytes = cell_bytes + pin_bytes + net_bytes + adjacency_bytes + name_bytes;
  }

(* ---- validation ------------------------------------------------------ *)

(* Cap the problem list: a design with a million NaN coordinates should
   produce one summarising line per check, not a million. *)
let max_reported = 20

(** Structural and numeric sanity. [placed] additionally requires every
    movable cell inside the die (checked after legalization, not at flow
    entry — incoming placements may be arbitrary; the flow re-spreads
    them). Returns the list of problems, empty when the design is sane. *)
let validate ?(placed = false) t =
  let problems = ref [] in
  let count = ref 0 in
  let add fmt =
    Printf.ksprintf
      (fun s ->
        incr count;
        if !count <= max_reported then problems := s :: !problems
        else if !count = max_reported + 1 then problems := "... further problems elided" :: !problems)
      fmt
  in
  let fin v = Float.is_finite v in
  let die = t.die in
  if not (fin die.xl && fin die.yl && fin die.xh && fin die.yh) then
    add "die has non-finite bounds"
  else begin
    if die.xh <= die.xl || die.yh <= die.yl then add "die has non-positive extent";
    if not (fin t.row_height) || t.row_height <= 0.0 then
      add "row height %g is not positive and finite" t.row_height
    else if die.yh -. die.yl < t.row_height then
      add "die height %g holds no full row (row height %g)" (die.yh -. die.yl) t.row_height
  end;
  if not (fin t.clock_period) || t.clock_period <= 0.0 then
    add "clock period %g is not positive and finite" t.clock_period;
  if not (fin t.input_delay && fin t.output_delay) then add "non-finite IO delay";
  if not (fin t.r_per_unit) || t.r_per_unit < 0.0 then add "wire resistance %g invalid" t.r_per_unit;
  if not (fin t.c_per_unit) || t.c_per_unit < 0.0 then add "wire capacitance %g invalid" t.c_per_unit;
  for i = 0 to t.n_cells - 1 do
    let cw = t.w.{i} and ch = t.h.{i} in
    if not (fin t.x.{i} && fin t.y.{i}) then
      add "cell %s has non-finite coordinates" t.cell_names.(i);
    if not (fin cw && fin ch) || cw < 0.0 || ch < 0.0 then
      add "cell %s has invalid size %gx%g" t.cell_names.(i) cw ch
    else if is_movable t i && (cw <= 0.0 || ch <= 0.0) then
      add "movable cell %s has zero area" t.cell_names.(i)
    else if placed && is_movable t i && fin t.x.{i} && fin t.y.{i} then begin
      (* Movable cells only: pads and macros legitimately sit on (or
         beyond) the die periphery and are never moved by the flow. *)
      let tol = 1e-6 in
      if
        t.x.{i} -. (cw /. 2.0) < die.xl -. tol
        || t.x.{i} +. (cw /. 2.0) > die.xh +. tol
        || t.y.{i} -. (ch /. 2.0) < die.yl -. tol
        || t.y.{i} +. (ch /. 2.0) > die.yh +. tol
      then add "movable cell %s placed outside the die" t.cell_names.(i)
    end
  done;
  for p = 0 to t.n_pins - 1 do
    let owner = t.pin_owner.(p) in
    if owner < 0 || owner >= t.n_cells then add "pin %d has no owner cell" p
    else begin
      let tol = 1e-6 in
      if not (fin t.pin_off_x.{p} && fin t.pin_off_y.{p}) then
        add "pin %s/%s has non-finite offset" t.cell_names.(owner) t.pin_names.(p)
      else if
        Float.abs t.pin_off_x.{p} > (t.w.{owner} /. 2.0) +. tol
        || Float.abs t.pin_off_y.{p} > (t.h.{owner} /. 2.0) +. tol
      then
        add "pin %s/%s offset (%g, %g) outside cell bounds %gx%g" t.cell_names.(owner)
          t.pin_names.(p) t.pin_off_x.{p} t.pin_off_y.{p} t.w.{owner} t.h.{owner};
      if not (fin t.pin_cap.{p}) || t.pin_cap.{p} < 0.0 then
        add "pin %s/%s has invalid capacitance %g" t.cell_names.(owner) t.pin_names.(p)
          t.pin_cap.{p}
    end
  done;
  for n = 0 to t.n_nets - 1 do
    if t.net_driver.(n) < 0 then add "net %s has no driver" t.net_names.(n);
    if net_degree t n - (if t.net_driver.(n) >= 0 then 1 else 0) = 0 then
      add "net %s has no sinks" t.net_names.(n);
    if not (fin t.net_weight.{n}) || t.net_weight.{n} < 0.0 then
      add "net %s has invalid weight %g" t.net_names.(n) t.net_weight.{n};
    for k = t.net_pin_off.(n) to t.net_pin_off.(n + 1) - 1 do
      let pid = t.net_pin_ids.(k) in
      if pid < 0 || pid >= t.n_pins then
        add "net %s references missing pin %d" t.net_names.(n) pid
    done
  done;
  List.rev !problems

(** [validate], raising [Util.Errors.Error (Invalid_design _)] on any
    problem. *)
let validate_exn ?placed t =
  match validate ?placed t with
  | [] -> ()
  | problems -> Util.Errors.invalid_design ~design:t.name problems
