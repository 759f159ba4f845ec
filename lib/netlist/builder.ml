(** Incremental construction of a {!Design.t}.

    Every field lives in a plain table of the type the design stores
    (int arrays, Bytes flags, float64 Bigarrays, name arrays), so pushes
    never box and [finish] hands tables over instead of converting them.
    A table grows by doubling unless {!reserve} sized it from a reader's
    record counts; a table whose capacity equals its count is handed to
    the design as is. Structural invariants (single driver per net, no
    reconnection) are checked as connections arrive, and [finish] builds
    both CSRs by counting sort. All operations are amortised O(1). *)

module Gv = Util.Gvec

type farr = Design.farr

type t = {
  name : string;
  die : Geom.Rect.t;
  row_height : float;
  clock_period : float;
  r_per_unit : float;
  c_per_unit : float;
  (* cells: slots [0, n_cells) of each table are live *)
  mutable n_cells : int;
  mutable cell_names : string array;
  mutable kinds : Bytes.t;
  mutable movable : Bytes.t;
  mutable lib_idx : int array;
  mutable ws : farr;
  mutable hs : farr;
  mutable xs : farr;
  mutable ys : farr;
  mutable first_pin : int array; (* pins are created contiguously per cell *)
  libs : Libcell.t Gv.t;
  lib_tbl : (string, int) Hashtbl.t; (* lname -> index into libs *)
  (* pins *)
  mutable n_pins : int;
  mutable pin_names : string array;
  mutable pin_owner : int array;
  mutable pin_dirs : Bytes.t; (* Design.dir_code *)
  mutable pin_off_x : farr;
  mutable pin_off_y : farr;
  mutable pin_cap : farr;
  mutable pin_net : int array; (* -1 until connected *)
  (* sink pins in connection order, counting-sorted by [pin_net] into the
     net CSR at finish; a pin sinks at most once, so this shares the pin
     capacity and never grows on its own *)
  mutable n_sinks : int;
  mutable sink_pin : int array;
  (* nets *)
  mutable n_nets : int;
  mutable net_names : string array;
  mutable net_driver : int array;
  mutable net_nsinks : int array;
  (* False once a raw pin lands on a cell that is not the newest one; the
     name-based pin lookups (which scan the contiguous range) then refuse
     to answer. [finish] never relies on contiguity. *)
  mutable pins_contiguous : bool;
}

let no_farr () = Design.farr_create 0

let create ~name ~die ~row_height ~clock_period ~r_per_unit ~c_per_unit =
  {
    name;
    die;
    row_height;
    clock_period;
    r_per_unit;
    c_per_unit;
    n_cells = 0;
    cell_names = [||];
    kinds = Bytes.empty;
    movable = Bytes.empty;
    lib_idx = [||];
    ws = no_farr ();
    hs = no_farr ();
    xs = no_farr ();
    ys = no_farr ();
    first_pin = [||];
    libs = Gv.create ();
    lib_tbl = Hashtbl.create 16;
    n_pins = 0;
    pin_names = [||];
    pin_owner = [||];
    pin_dirs = Bytes.empty;
    pin_off_x = no_farr ();
    pin_off_y = no_farr ();
    pin_cap = no_farr ();
    pin_net = [||];
    n_sinks = 0;
    sink_pin = [||];
    n_nets = 0;
    net_names = [||];
    net_driver = [||];
    net_nsinks = [||];
    pins_contiguous = true;
  }

let num_cells b = b.n_cells

let num_nets b = b.n_nets

(* Drop every table (not just the counts): a kept table would retain the
   previous design's names and library cells, and [finish] may have
   handed it to that design. Without the library table clear a reused
   builder would resolve a same-named library cell of the *new* design
   to the old design's dangling [libs] index. *)
let reset b =
  b.n_cells <- 0;
  b.cell_names <- [||];
  b.kinds <- Bytes.empty;
  b.movable <- Bytes.empty;
  b.lib_idx <- [||];
  b.ws <- no_farr ();
  b.hs <- no_farr ();
  b.xs <- no_farr ();
  b.ys <- no_farr ();
  b.first_pin <- [||];
  Gv.clear b.libs;
  Hashtbl.reset b.lib_tbl;
  b.n_pins <- 0;
  b.pin_names <- [||];
  b.pin_owner <- [||];
  b.pin_dirs <- Bytes.empty;
  b.pin_off_x <- no_farr ();
  b.pin_off_y <- no_farr ();
  b.pin_cap <- no_farr ();
  b.pin_net <- [||];
  b.n_sinks <- 0;
  b.sink_pin <- [||];
  b.n_nets <- 0;
  b.net_names <- [||];
  b.net_driver <- [||];
  b.net_nsinks <- [||];
  b.pins_contiguous <- true

(* ---- table capacity ---------------------------------------------------- *)

(* Int and name tables only: a [float array] would need its own maker. *)
let resize a n cap ~fill =
  let r = Array.make cap fill in
  Array.blit a 0 r 0 n;
  r

let resize_bytes a n cap =
  let r = Bytes.make cap '\000' in
  Bytes.blit a 0 r 0 n;
  r

let resize_farr (a : farr) n cap =
  let r = Design.farr_create cap in
  Bigarray.Array1.blit (Bigarray.Array1.sub a 0 n) (Bigarray.Array1.sub r 0 n);
  r

let set_cell_cap b cap =
  let n = b.n_cells in
  b.cell_names <- resize b.cell_names n cap ~fill:"";
  b.kinds <- resize_bytes b.kinds n cap;
  b.movable <- resize_bytes b.movable n cap;
  b.lib_idx <- resize b.lib_idx n cap ~fill:0;
  b.ws <- resize_farr b.ws n cap;
  b.hs <- resize_farr b.hs n cap;
  b.xs <- resize_farr b.xs n cap;
  b.ys <- resize_farr b.ys n cap;
  b.first_pin <- resize b.first_pin n cap ~fill:0

let set_pin_cap b cap =
  let n = b.n_pins in
  b.pin_names <- resize b.pin_names n cap ~fill:"";
  b.pin_owner <- resize b.pin_owner n cap ~fill:0;
  b.pin_dirs <- resize_bytes b.pin_dirs n cap;
  b.pin_off_x <- resize_farr b.pin_off_x n cap;
  b.pin_off_y <- resize_farr b.pin_off_y n cap;
  b.pin_cap <- resize_farr b.pin_cap n cap;
  b.pin_net <- resize b.pin_net n cap ~fill:0;
  b.sink_pin <- resize b.sink_pin b.n_sinks cap ~fill:0

let set_net_cap b cap =
  let n = b.n_nets in
  b.net_names <- resize b.net_names n cap ~fill:"";
  b.net_driver <- resize b.net_driver n cap ~fill:0;
  b.net_nsinks <- resize b.net_nsinks n cap ~fill:0

let grown n = max 16 (2 * n)

let reserve b ~cells ~pins ~nets =
  if cells > Array.length b.cell_names then set_cell_cap b cells;
  if pins > Array.length b.pin_owner then set_pin_cap b pins;
  if nets > Array.length b.net_driver then set_net_cap b nets

(* ---- cells and pins ------------------------------------------------------ *)

let add_pin b ~owner ~pin_name ~dir ~off_x ~off_y ~cap =
  let pid = b.n_pins in
  if pid = Array.length b.pin_owner then set_pin_cap b (grown pid);
  b.pin_names.(pid) <- pin_name;
  b.pin_owner.(pid) <- owner;
  Bytes.unsafe_set b.pin_dirs pid (Design.dir_code dir);
  b.pin_off_x.{pid} <- off_x;
  b.pin_off_y.{pid} <- off_y;
  b.pin_cap.{pid} <- cap;
  b.pin_net.(pid) <- -1;
  b.n_pins <- pid + 1;
  pid

(* Library cells are interned by name: designs reuse a handful of
   [Libcell.t] values, so the side table stays tiny. While it is, a scan
   for the very same value answers first (each interned value is the
   first of its name, so the scan and the name table agree). *)
let intern_lib b (lib : Libcell.t) =
  let n = Gv.length b.libs in
  let i = ref 0 in
  while !i < n && !i < 16 && Gv.get b.libs !i != lib do
    incr i
  done;
  if !i < n && !i < 16 then !i
  else
    match Hashtbl.find b.lib_tbl lib.Libcell.lname with
    | i -> i
    | exception Not_found ->
      let i = Gv.length b.libs in
      Gv.push b.libs lib;
      Hashtbl.add b.lib_tbl lib.Libcell.lname i;
      i

let add_cell b ~cname ~kind ~lib_idx ~w ~h ~movable ~x ~y =
  let id = b.n_cells in
  if id = Array.length b.cell_names then set_cell_cap b (grown id);
  b.cell_names.(id) <- cname;
  Bytes.unsafe_set b.kinds id (Design.kind_code kind);
  Bytes.unsafe_set b.movable id (if movable then '\001' else '\000');
  b.lib_idx.(id) <- lib_idx;
  b.ws.{id} <- w;
  b.hs.{id} <- h;
  b.xs.{id} <- x;
  b.ys.{id} <- y;
  b.first_pin.(id) <- b.n_pins;
  b.n_cells <- id + 1;
  id

let check_cell b fn cell =
  if cell < 0 || cell >= b.n_cells then
    invalid_arg (Printf.sprintf "Builder.%s: no cell %d" fn cell)

(* The pins every cell of a kind carries: a logic cell's come from its
   library cell in library order; a pad has one pin "p" at its centre
   (an input pad drives it, an output pad sinks it with a nominal pad
   capacitance); a blockage has none. *)
let add_canonical_pins b ~cell =
  check_cell b "add_canonical_pins" cell;
  if cell <> b.n_cells - 1 then b.pins_contiguous <- false;
  let k = Bytes.get b.kinds cell in
  if k = Design.kind_code Design.Logic then begin
    let li = b.lib_idx.(cell) in
    if li < 0 then invalid_arg "Builder.add_canonical_pins: logic cell without library cell";
    let pins = (Gv.get b.libs li).Libcell.pins in
    for k = 0 to Array.length pins - 1 do
      let lp = pins.(k) in
      let dir =
        match lp.Libcell.kind with Libcell.Input -> Design.In | Libcell.Output -> Design.Out
      in
      ignore
        (add_pin b ~owner:cell ~pin_name:lp.Libcell.pname ~dir ~off_x:lp.Libcell.off_x
           ~off_y:lp.Libcell.off_y ~cap:lp.Libcell.cap)
    done
  end
  else if k = Design.kind_code Design.Input_pad then
    ignore (add_pin b ~owner:cell ~pin_name:"p" ~dir:Design.Out ~off_x:0.0 ~off_y:0.0 ~cap:0.0)
  else if k = Design.kind_code Design.Output_pad then
    ignore (add_pin b ~owner:cell ~pin_name:"p" ~dir:Design.In ~off_x:0.0 ~off_y:0.0 ~cap:3.0)

let add_logic b ~cname ~lib ~x ~y ?(movable = true) () =
  let li = intern_lib b lib in
  let id =
    add_cell b ~cname ~kind:Design.Logic ~lib_idx:li ~w:lib.Libcell.width
      ~h:lib.Libcell.height ~movable ~x ~y
  in
  add_canonical_pins b ~cell:id;
  id

(* Pads sit on the die boundary and are fixed. *)
let add_pad b ~cname ~kind ~x ~y =
  let id = add_cell b ~cname ~kind ~lib_idx:(-1) ~w:1.0 ~h:1.0 ~movable:false ~x ~y in
  add_canonical_pins b ~cell:id;
  id

let add_input_pad b ~cname ~x ~y = add_pad b ~cname ~kind:Design.Input_pad ~x ~y

let add_output_pad b ~cname ~x ~y = add_pad b ~cname ~kind:Design.Output_pad ~x ~y

let add_blockage b ~cname ~x ~y ~w ~h =
  add_cell b ~cname ~kind:Design.Blockage ~lib_idx:(-1) ~w ~h ~movable:false ~x ~y

(* ---- raw construction (streaming format readers) --------------------- *)

let add_raw_cell b ~cname ~kind ~lib ~w ~h ~movable ~x ~y =
  let li = match lib with Some l -> intern_lib b l | None -> -1 in
  add_cell b ~cname ~kind ~lib_idx:li ~w ~h ~movable ~x ~y

let add_raw_pin b ~cell ~pin_name ~dir ~off_x ~off_y ~cap =
  check_cell b "add_raw_pin" cell;
  if cell <> b.n_cells - 1 then b.pins_contiguous <- false;
  add_pin b ~owner:cell ~pin_name ~dir ~off_x ~off_y ~cap

let set_movable b ~cell ~movable =
  check_cell b "set_movable" cell;
  Bytes.unsafe_set b.movable cell (if movable then '\001' else '\000')

let set_kind b ~cell ~kind ~lib =
  check_cell b "set_kind" cell;
  Bytes.unsafe_set b.kinds cell (Design.kind_code kind);
  b.lib_idx.(cell) <- (match lib with Some l -> intern_lib b l | None -> -1)

let cell_width b ~cell =
  check_cell b "cell_width" cell;
  b.ws.{cell}

let cell_height b ~cell =
  check_cell b "cell_height" cell;
  b.hs.{cell}

(* ---- nets ---------------------------------------------------------------- *)

let add_net b ~nname =
  let nid = b.n_nets in
  if nid = Array.length b.net_driver then set_net_cap b (grown nid);
  b.net_names.(nid) <- nname;
  b.net_driver.(nid) <- -1;
  b.net_nsinks.(nid) <- 0;
  b.n_nets <- nid + 1;
  nid

let connect b ~net:nid ~pin:pid =
  if pid < 0 || pid >= b.n_pins then invalid_arg (Printf.sprintf "Builder.connect: no pin %d" pid);
  if nid < 0 || nid >= b.n_nets then invalid_arg (Printf.sprintf "Builder.connect: no net %d" nid);
  if b.pin_net.(pid) >= 0 then
    Util.Errors.invalid_design ~design:b.name
      [ Printf.sprintf "pin %d connected to two nets" pid ];
  b.pin_net.(pid) <- nid;
  if Bytes.unsafe_get b.pin_dirs pid = Design.dir_code Design.Out then begin
    if b.net_driver.(nid) >= 0 then
      Util.Errors.invalid_design ~design:b.name
        [ Printf.sprintf "net %s has two drivers" b.net_names.(nid) ];
    b.net_driver.(nid) <- pid
  end
  else begin
    b.net_nsinks.(nid) <- b.net_nsinks.(nid) + 1;
    let k = b.n_sinks in
    b.sink_pin.(k) <- pid;
    b.n_sinks <- k + 1
  end

(* Pins of cell [c] occupy the contiguous pid range starting at
   [first_pin c]; the range ends at the next cell's first pin (or the pin
   count for the last cell). *)
let find_pin b ~cell ~pin_name =
  if not b.pins_contiguous then
    invalid_arg "Builder.find_pin: pins are no longer contiguous (raw pins were added)";
  check_cell b "find_pin" cell;
  let lo = b.first_pin.(cell) in
  let hi = if cell + 1 < b.n_cells then b.first_pin.(cell + 1) else b.n_pins in
  let rec go pid =
    if pid >= hi then None
    else if String.equal b.pin_names.(pid) pin_name then Some pid
    else go (pid + 1)
  in
  go lo

let connect_by_name b ~net ~cell ~pin_name =
  match find_pin b ~cell ~pin_name with
  | Some pid -> connect b ~net ~pin:pid
  | None ->
      invalid_arg
        (Printf.sprintf "Builder.connect_by_name: cell %s has no pin %s" b.cell_names.(cell)
           pin_name)

let pin_of_cell b ~cell ~pin_name =
  match find_pin b ~cell ~pin_name with
  | Some pid -> pid
  | None -> invalid_arg "Builder.pin_of_cell: no such pin"

(* ---- freeze -------------------------------------------------------------- *)

let exact a n = if Array.length a = n then a else Array.sub a 0 n

let exact_bytes a n = if Bytes.length a = n then a else Bytes.sub a 0 n

let exact_farr (a : farr) n = if Bigarray.Array1.dim a = n then a else resize_farr a n n

let finish b =
  let n_cells = b.n_cells and n_pins = b.n_pins and n_nets = b.n_nets in
  let net_driver = b.net_driver and net_nsinks = b.net_nsinks in
  let problems = ref [] in
  for nid = n_nets - 1 downto 0 do
    if net_nsinks.(nid) = 0 then
      problems := Printf.sprintf "net %s has no sinks" b.net_names.(nid) :: !problems;
    if net_driver.(nid) < 0 then
      problems := Printf.sprintf "net %s has no driver" b.net_names.(nid) :: !problems
  done;
  if !problems <> [] then Util.Errors.invalid_design ~design:b.name !problems;
  (* Cell->pin CSR by stable counting sort over [pin_owner]. The library
     path creates each cell's pins contiguously so the sort degenerates to
     the identity map; raw pins from format readers arrive in net order
     and land here in pin-id order per cell. *)
  let pin_owner = exact b.pin_owner n_pins in
  let cell_pin_off = Array.make (n_cells + 1) 0 in
  for p = 0 to n_pins - 1 do
    let o = pin_owner.(p) + 1 in
    cell_pin_off.(o) <- cell_pin_off.(o) + 1
  done;
  for i = 0 to n_cells - 1 do
    cell_pin_off.(i + 1) <- cell_pin_off.(i + 1) + cell_pin_off.(i)
  done;
  let cell_pin_ids = Array.make n_pins (-1) in
  let cursor = Array.sub cell_pin_off 0 n_cells in
  for p = 0 to n_pins - 1 do
    let o = pin_owner.(p) in
    cell_pin_ids.(cursor.(o)) <- p;
    cursor.(o) <- cursor.(o) + 1
  done;
  (* Net->pin CSR by counting sort: slot 0 of each net is its driver, then
     sinks in connection order (the sort is stable over [sink_pin]). *)
  let net_pin_off = Array.make (n_nets + 1) 0 in
  for nid = 0 to n_nets - 1 do
    net_pin_off.(nid + 1) <- net_pin_off.(nid) + 1 + net_nsinks.(nid)
  done;
  let net_pin_ids = Array.make net_pin_off.(n_nets) (-1) in
  let cursor = Array.make n_nets 0 in
  for nid = 0 to n_nets - 1 do
    net_pin_ids.(net_pin_off.(nid)) <- net_driver.(nid);
    cursor.(nid) <- net_pin_off.(nid) + 1
  done;
  let pin_net = exact b.pin_net n_pins and sink_pin = b.sink_pin in
  for k = 0 to b.n_sinks - 1 do
    let p = sink_pin.(k) in
    let nid = pin_net.(p) in
    net_pin_ids.(cursor.(nid)) <- p;
    cursor.(nid) <- cursor.(nid) + 1
  done;
  let weights = Design.farr_create n_nets in
  Design.farr_fill weights 1.0;
  let d =
    {
      Design.name = b.name;
      die = b.die;
      row_height = b.row_height;
      clock_period = b.clock_period;
      input_delay = 0.0;
      output_delay = 0.0;
      r_per_unit = b.r_per_unit;
      c_per_unit = b.c_per_unit;
      n_cells;
      n_pins;
      n_nets;
      x = exact_farr b.xs n_cells;
      y = exact_farr b.ys n_cells;
      w = exact_farr b.ws n_cells;
      h = exact_farr b.hs n_cells;
      movable = exact_bytes b.movable n_cells;
      kinds = exact_bytes b.kinds n_cells;
      lib_idx = exact b.lib_idx n_cells;
      libs = Gv.to_array b.libs;
      cell_pin_off;
      cell_pin_ids;
      pin_owner;
      pin_net;
      pin_dirs = exact_bytes b.pin_dirs n_pins;
      pin_off_x = exact_farr b.pin_off_x n_pins;
      pin_off_y = exact_farr b.pin_off_y n_pins;
      pin_cap = exact_farr b.pin_cap n_pins;
      net_driver = exact net_driver n_nets;
      net_weight = weights;
      net_pin_off;
      net_pin_ids;
      cell_names = exact b.cell_names n_cells;
      pin_names = exact b.pin_names n_pins;
      net_names = exact b.net_names n_nets;
    }
  in
  (* The design may now own these tables; the builder lets go of them. *)
  reset b;
  d
