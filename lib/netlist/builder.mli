(** Incremental construction of a {!Design.t}: collect cells/pins/nets in
    tables of the design's own types, check structural invariants (one
    driver per net, pins exist, no reconnection), freeze into the
    flat-array database. All operations are amortised O(1); tables sized
    by {!reserve} to the final counts are handed to the design without a
    copy. *)

type t

val create :
  name:string ->
  die:Geom.Rect.t ->
  row_height:float ->
  clock_period:float ->
  r_per_unit:float ->
  c_per_unit:float ->
  t

val num_cells : t -> int

val num_nets : t -> int

(** Grow the cell, pin and net tables to hold at least [cells], [pins]
    and [nets] entries in total (a count at or below the current
    capacity changes nothing). Readers call it with their files' record
    counts — after bounding those by the file size — so a build does no
    doubling and [finish] copies nothing. *)
val reserve : t -> cells:int -> pins:int -> nets:int -> unit

(** Return to a clean slate for reuse in a long-lived process: all
    tables dropped, the library intern table cleared (a stale entry
    would bind a same-named library cell to a dangling index), previous
    elements made collectable, pin contiguity rearmed. The identity
    [reset b; build X] ≡ [build X on a fresh builder] is enforced by the
    load-twice test in [test/test_netlist_suite.ml]. *)
val reset : t -> unit

(** Add a logic cell (combinational or FF); its pins come from the library
    cell. Returns the cell id. *)
val add_logic :
  t -> cname:string -> lib:Libcell.t -> x:float -> y:float -> ?movable:bool -> unit -> int

(** Fixed 1x1 pad on the boundary with a single output pin "p". *)
val add_input_pad : t -> cname:string -> x:float -> y:float -> int

(** Fixed 1x1 pad with a single input pin "p". *)
val add_output_pad : t -> cname:string -> x:float -> y:float -> int

(** Fixed rectangular macro obstruction (no pins). *)
val add_blockage : t -> cname:string -> x:float -> y:float -> w:float -> h:float -> int

val add_net : t -> nname:string -> int

(** Connect a pin to a net; output pins become the driver (at most one),
    input pins become sinks. Raises [Util.Errors.Error (Invalid_design _)]
    on double driver or
    reconnection. *)
val connect : t -> net:int -> pin:int -> unit

val connect_by_name : t -> net:int -> cell:int -> pin_name:string -> unit

(** Pin id of a cell's named pin; raises [Invalid_argument] if absent. *)
val pin_of_cell : t -> cell:int -> pin_name:string -> int

(** {2 Raw construction}

    Streaming format readers (lib/formats) build cells and pins in file
    order: cells first with explicit geometry, pins later as net records
    mention them. Pins then need not be contiguous per cell — [finish]
    rebuilds the cell->pin CSR by stable counting sort (the library path
    above still freezes to the identity map, bit for bit). After an
    out-of-order raw pin, [connect_by_name]/[pin_of_cell] raise
    [Invalid_argument]; raw callers track pin ids themselves. *)

(** Add a cell with explicit kind/geometry and no pins. [lib] supplies
    the timing view for [Logic] cells (ignored for pads/blockages). *)
val add_raw_cell :
  t ->
  cname:string ->
  kind:Design.kind ->
  lib:Libcell.t option ->
  w:float ->
  h:float ->
  movable:bool ->
  x:float ->
  y:float ->
  int

(** Add one pin to an existing cell; returns the pin id. Raises
    [Invalid_argument] for an unknown cell. *)
val add_raw_pin :
  t -> cell:int -> pin_name:string -> dir:Design.dir -> off_x:float -> off_y:float -> cap:float -> int

(** Flip a cell's movable flag after creation. *)
val set_movable : t -> cell:int -> movable:bool -> unit

(** Reclassify a cell (and its library binding) after creation — raw
    readers learn pad/blockage kinds only once pins are known. *)
val set_kind : t -> cell:int -> kind:Design.kind -> lib:Libcell.t option -> unit

(** Create the pins every cell of the cell's current kind carries, as
    {!add_logic}/{!add_input_pad}/{!add_output_pad} do: a logic cell's
    library pins in library order, a pad's single pin ["p"], nothing for
    a blockage. Raises [Invalid_argument] for a logic cell without a
    library cell. *)
val add_canonical_pins : t -> cell:int -> unit

val cell_width : t -> cell:int -> float

val cell_height : t -> cell:int -> float

(** Freeze. Every net must have a driver and at least one sink. The
    design takes over the builder's tables, and the builder is left
    empty, as after {!reset}. *)
val finish : t -> Design.t
