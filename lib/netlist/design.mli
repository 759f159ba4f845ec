(** The circuit database as a struct-of-arrays: every cell/pin/net field
    lives in its own flat array indexed by id, adjacency is CSR (offsets
    plus flat id arrays), and names sit in side tables off the hot path.

    Float fields are Bigarray [float64] vectors shared zero-copy with the
    placement/timing kernels (DREAMPlace-style layout); int fields are
    plain [int array]s. Kernels index the public arrays directly — there
    are no per-cell/pin/net records and no boxing in steady-state loops. *)

(** Flat [float64] vector, C layout: [a.{i}] reads, [a.{i} <- v] writes. *)
type farr = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

val farr_create : int -> farr

val farr_of_array : float array -> farr

val farr_copy : farr -> farr

val farr_blit : farr -> farr -> unit

val farr_fill : farr -> float -> unit

type kind =
  | Logic
  | Input_pad (* primary input: one output pin, timing startpoint *)
  | Output_pad (* primary output: one input pin, timing endpoint *)
  | Blockage (* fixed macro obstruction, no pins *)

type dir = In | Out

type t = {
  name : string;
  die : Geom.Rect.t;
  row_height : float;
  mutable clock_period : float; (* calibrated after generation *)
  mutable input_delay : float; (* SDC-like: arrival offset at input pads *)
  mutable output_delay : float; (* SDC-like: margin required at output pads *)
  mutable r_per_unit : float; (* wire resistance per unit length; set_wire_rc may retarget *)
  mutable c_per_unit : float; (* wire capacitance per unit length *)
  n_cells : int;
  n_pins : int;
  n_nets : int;
  (* -- cell fields, indexed by cell id -- *)
  x : farr; (* cell centre coordinates, mutable placement state *)
  y : farr;
  w : farr;
  h : farr;
  movable : Bytes.t; (* '\001' when movable; use [is_movable] *)
  kinds : Bytes.t; (* kind codes; use [kind] *)
  lib_idx : int array; (* index into [libs]; -1 for pads/blockages *)
  libs : Libcell.t array; (* deduplicated library side table *)
  cell_pin_off : int array; (* CSR cell->pins, length n_cells+1 *)
  cell_pin_ids : int array;
  (* -- pin fields, indexed by pin id -- *)
  pin_owner : int array;
  pin_net : int array; (* -1 when unconnected *)
  pin_dirs : Bytes.t; (* use [pin_dir] *)
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

val num_cells : t -> int

val num_pins : t -> int

val num_nets : t -> int

val kind_code : kind -> char

val kind : t -> int -> kind

val dir_code : dir -> char

val pin_dir : t -> int -> dir

val is_movable : t -> int -> bool

val is_ff : t -> int -> bool

(** The cell's library cell; raises [Invalid_argument] for pads and
    blockages — guard with [kind]. *)
val libcell : t -> int -> Libcell.t

val cell_name : t -> int -> string

val pin_name : t -> int -> string

val net_name : t -> int -> string

(** Physical pin position under the current placement. *)
val pin_x : t -> int -> float

val pin_y : t -> int -> float

val pin_pos : t -> int -> Geom.Point.t

(** Occupied rectangle of a cell under the current placement. *)
val cell_rect : t -> int -> Geom.Rect.t

val cell_num_pins : t -> int -> int

val iter_cell_pins : t -> int -> (int -> unit) -> unit

(** Fresh array of the cell's pin ids (cold paths; hot loops should walk
    [cell_pin_off]/[cell_pin_ids] directly). *)
val cell_pins : t -> int -> int array

val net_degree : t -> int -> int

val iter_net_pins : t -> int -> (int -> unit) -> unit

(** Fresh array of the net's pin ids, driver first then sinks in
    connection order (cold paths; hot loops walk the CSR directly). *)
val net_pins : t -> int -> int array

val net_num_sinks : t -> int -> int

(** Sink [k] (0-based, connection order) of net [n]. *)
val net_sink : t -> int -> int -> int

val iter_net_sinks : t -> int -> (int -> unit) -> unit

val movable_ids : t -> int list

val num_movable : t -> int

val movable_area : t -> float

(** HPWL of one net into caller-owned scratch (≥ 5 float slots; result
    left in slot 4). Allocation-free — for sweeps over many nets. *)
val net_hpwl_into : t -> int -> float array -> unit

(** HPWL of one net (0 for degenerate nets). *)
val net_hpwl : t -> int -> float

(** Total unweighted HPWL — the contest wirelength metric. *)
val total_hpwl : t -> float

(** Copy of the current placement, for checkpoints. *)
val snapshot : t -> farr * farr

val restore : t -> farr * farr -> unit

(** Clamp every movable cell centre so the cell stays inside the die. *)
val clamp_movable : t -> unit

val reset_net_weights : t -> unit

(** Heap bytes by field group — the SoA win made visible per design
    (see [bin/design_stats]). *)
type footprint = {
  cell_bytes : int; (* x/y/w/h + movable/kind flags + lib indices *)
  pin_bytes : int; (* owner/net/dir + offsets + caps *)
  net_bytes : int; (* driver + weight *)
  adjacency_bytes : int; (* both CSRs *)
  name_bytes : int; (* side tables *)
  total_bytes : int;
}

val footprint : t -> footprint

(** Structural and numeric sanity: finite coordinates/constraints, pin
    offsets inside cell bounds, driven nonempty nets, positive clock
    period and row height. [placed] (default false) additionally requires
    every movable cell inside the die (pads and fixed macros may sit on
    the periphery) — used after legalization; flow entry skips it because
    incoming placements may be arbitrary. Returns the problem list
    (capped), empty when sane. *)
val validate : ?placed:bool -> t -> string list

(** [validate], raising [Util.Errors.Error (Invalid_design _)] on any
    problem. *)
val validate_exn : ?placed:bool -> t -> unit
