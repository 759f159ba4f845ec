(** Bookshelf reader/writer (see the interface and DESIGN.md §13). *)

module D = Netlist.Design
module B = Netlist.Builder
module L = Netlist.Libcell

let specials = ":"

let perr ~name ~line fmt =
  Printf.ksprintf (fun msg -> raise (Scan.Parse_error (line, name ^ ": " ^ msg))) fmt

(* A declared record count is checked against what the file can still
   hold before any table is sized from it: the [seen] records already
   read plus one per [min_bytes] bytes left, where [min_bytes] is the
   shortest record with its newline (the last one may lack it). A header
   that lies about its count thus costs memory in proportion to the file,
   not to the header. *)
let check_room sc ~what ~min_bytes ~seen n =
  let room = Scan.remaining_bytes sc in
  let fit = if room >= max_int - 1 then max_int else seen + ((room + 1) / min_bytes) in
  if n > fit then
    Scan.fail sc "%s %d exceeds what the remaining %d bytes can hold (at most %d)" what n room
      fit

(* ---------------------------------------------------------------- aux -- *)

type listed = { fpath : string; flno : int }

type files = {
  mutable f_nodes : listed option;
  mutable f_nets : listed option;
  mutable f_pl : listed option;
  mutable f_scl : listed option;
  mutable f_cells : listed option;
}

let ext_of s =
  match String.rindex_opt s '.' with
  | None -> ""
  | Some i -> String.lowercase_ascii (String.sub s (i + 1) (String.length s - i - 1))

let read_aux_listing ~auxname path meta =
  let dir = Filename.dirname path in
  let fs = { f_nodes = None; f_nets = None; f_pl = None; f_scl = None; f_cells = None } in
  let sc = Scan.open_file ~specials ~name:auxname path in
  Fun.protect ~finally:(fun () -> Scan.close sc) @@ fun () ->
  let record () =
    let ext = ext_of (Scan.tok sc) in
    let slot =
      match ext with
      | "nodes" -> Some (fs.f_nodes, fun l -> fs.f_nodes <- l)
      | "nets" -> Some (fs.f_nets, fun l -> fs.f_nets <- l)
      | "pl" -> Some (fs.f_pl, fun l -> fs.f_pl <- l)
      | "scl" -> Some (fs.f_scl, fun l -> fs.f_scl <- l)
      | "cells" -> Some (fs.f_cells, fun l -> fs.f_cells <- l)
      | _ -> None (* .wts, .shapes, .route, ... — not consumed *)
    in
    match slot with
    | None -> ()
    | Some (cur, set) ->
        if cur <> None then Scan.fail sc "duplicate .%s listing" ext;
        set (Some { fpath = Filename.concat dir (Scan.tok sc); flno = Scan.line_number sc })
  in
  while Scan.next_line sc do
    if Scan.next_tok sc then begin
      (* "<Key> : file file ..." — the key word itself is free-form. *)
      Scan.expect_lit sc ":";
      while Scan.next_tok sc do
        record ()
      done;
      if Scan.at_hash sc then Meta.scan_comment meta sc
    end
    else if Scan.at_hash sc then Meta.scan_comment meta sc
  done;
  fs

let open_listed ~auxname l =
  try Scan.open_file ~specials l.fpath
  with Scan.Parse_error (_, msg) -> perr ~name:auxname ~line:l.flno "%s" msg

(* ---------------------------------------------------------------- scl -- *)

(* Returns (rows bbox, first row height) when the file defines rows. *)
let read_scl sc =
  Fun.protect ~finally:(fun () -> Scan.close sc) @@ fun () ->
  let num_rows = ref (-1) in
  let bbox = ref None and row_h = ref None and rows_seen = ref 0 in
  let read_row () =
    let coord = ref nan and height = ref nan in
    let origin = ref nan and nsites = ref (-1) in
    let sitespacing = ref nan and sitewidth = ref nan in
    let row_line = Scan.line_number sc in
    let ended = ref false in
    while not !ended do
      if not (Scan.next_line sc) then
        Scan.fail_at sc ~line:row_line "unterminated CoreRow block";
      if Scan.next_tok sc then begin
        if Scan.tok_is_ci sc "End" then ended := true
        else if Scan.tok_is_ci sc "Coordinate" then begin
          Scan.expect_lit sc ":";
          coord := Scan.expect_float sc ~what:"row coordinate"
        end
        else if Scan.tok_is_ci sc "Height" then begin
          Scan.expect_lit sc ":";
          height := Scan.expect_float sc ~what:"row height"
        end
        else if Scan.tok_is_ci sc "Sitewidth" then begin
          Scan.expect_lit sc ":";
          sitewidth := Scan.expect_float sc ~what:"site width"
        end
        else if Scan.tok_is_ci sc "Sitespacing" then begin
          Scan.expect_lit sc ":";
          sitespacing := Scan.expect_float sc ~what:"site spacing"
        end
        else if Scan.tok_is_ci sc "SubrowOrigin" then begin
          Scan.expect_lit sc ":";
          origin := Scan.expect_float sc ~what:"subrow origin";
          Scan.expect_lit sc "NumSites";
          Scan.expect_lit sc ":";
          nsites := Scan.expect_int sc ~what:"site count";
          if !nsites < 0 then Scan.fail sc "negative NumSites"
        end
        else () (* Siteorient, Sitesymmetry, ... *)
      end
    done;
    if Float.is_nan !coord || Float.is_nan !height || Float.is_nan !origin || !nsites < 0
    then Scan.fail_at sc ~line:row_line "CoreRow missing Coordinate/Height/SubrowOrigin";
    let spacing =
      if not (Float.is_nan !sitespacing) then !sitespacing
      else if not (Float.is_nan !sitewidth) then !sitewidth
      else 1.0
    in
    let xl = !origin and xh = !origin +. (float_of_int !nsites *. spacing) in
    let yl = !coord and yh = !coord +. !height in
    (match !row_h with None -> row_h := Some !height | Some _ -> ());
    let r = Geom.Rect.make ~xl ~yl ~xh ~yh in
    bbox := Some (match !bbox with None -> r | Some acc -> Geom.Rect.union acc r);
    incr rows_seen
  in
  while Scan.next_line sc do
    if Scan.next_tok sc then begin
      if Scan.tok_is_ci sc "UCLA" then ()
      else if Scan.tok_is_ci sc "NumRows" then begin
        Scan.expect_lit sc ":";
        let n = Scan.expect_int sc ~what:"row count" in
        (* "CoreRow", "Coordinate:0", "Height:0", "SubrowOrigin:0 NumSites:0", "End" *)
        check_room sc ~what:"NumRows" ~min_bytes:60 ~seen:!rows_seen n;
        num_rows := n
      end
      else if Scan.tok_is_ci sc "CoreRow" then read_row ()
      else Scan.fail sc "unexpected token %S in .scl" (Scan.tok sc)
    end
  done;
  if !num_rows >= 0 && !rows_seen <> !num_rows then
    Scan.fail sc "NumRows %d but %d CoreRow blocks" !num_rows !rows_seen;
  (!bbox, !row_h)

(* -------------------------------------------------------------- nodes -- *)

let max_cells = 200_000_000

type nodes = {
  tbl : Strtab.t; (* cell name -> id *)
  names : string array;
  term : Bytes.t; (* '\001' for terminals *)
}

let read_nodes sc b ~cx ~cy =
  Fun.protect ~finally:(fun () -> Scan.close sc) @@ fun () ->
  let nn = ref (-1) and nt = ref (-1) in
  let tbl = ref (Strtab.create ()) and term = ref Bytes.empty and names = ref [||] in
  let count = ref 0 and tcount = ref 0 in
  while Scan.next_line sc do
    if Scan.next_tok sc then begin
      if Scan.tok_is_ci sc "UCLA" then ()
      else if Scan.tok_is_ci sc "NumNodes" then begin
        Scan.expect_lit sc ":";
        let n = Scan.expect_int sc ~what:"node count" in
        if n < 0 || n > max_cells then Scan.fail sc "implausible NumNodes %d" n;
        (* "a 1 1": name, width, height *)
        check_room sc ~what:"NumNodes" ~min_bytes:6 ~seen:0 n;
        nn := n;
        tbl := Strtab.create ~size_hint:n ();
        term := Bytes.make n '\000';
        names := Array.make n "";
        B.reserve b ~cells:n ~pins:0 ~nets:0
      end
      else if Scan.tok_is_ci sc "NumTerminals" then begin
        Scan.expect_lit sc ":";
        nt := Scan.expect_int sc ~what:"terminal count"
      end
      else begin
        if !nn < 0 then Scan.fail sc "node record before NumNodes header";
        (* One probe binds the name and detects a duplicate: a bound name
           leaves the count unchanged. *)
        let name = Scan.tok sc in
        let bound = Strtab.length !tbl in
        Strtab.add !tbl name !count;
        if Strtab.length !tbl = bound then Scan.fail sc "duplicate cell %S" name;
        let w = Scan.expect_float sc ~what:"cell width" in
        let h = Scan.expect_float sc ~what:"cell height" in
        if w < 0.0 || h < 0.0 then Scan.fail sc "negative cell size";
        let terminal =
          if Scan.next_tok sc then
            if Scan.tok_is_ci sc "terminal" || Scan.tok_is_ci sc "terminal_NI" then true
            else Scan.fail sc "unexpected token %S after node size" (Scan.tok sc)
          else false
        in
        if Scan.next_tok sc then Scan.fail sc "trailing tokens in node record";
        if !count >= !nn then Scan.fail sc "more node records than NumNodes";
        let id =
          B.add_raw_cell b ~cname:name ~kind:D.Logic ~lib:None ~w ~h
            ~movable:(not terminal) ~x:cx ~y:cy
        in
        !names.(id) <- name;
        if terminal then begin
          Bytes.set !term id '\001';
          incr tcount
        end;
        incr count
      end
    end
  done;
  if !nn < 0 then Scan.fail sc "missing NumNodes header";
  if !count <> !nn then Scan.fail sc "expected %d node records, got %d" !nn !count;
  if !nt >= 0 && !tcount <> !nt then
    Scan.fail sc "NumTerminals %d but %d terminal records" !nt !tcount;
  { tbl = !tbl; names = !names; term = !term }

(* ------------------------------------------------------ .cells sidecar -- *)

(* The sidecar, one slot per cell: the kind letter ('L' logic, 'I'/'O'
   pads, 'B' blockage, '\000' not listed yet), the library cell's index
   in [L.default_library] (logic only), M/F as '\001'/'\000', and the
   entry's line. *)
type specs = { sk : Bytes.t; slib : int array; smov : Bytes.t; sline : int array }

let read_cells sc (nd : nodes) =
  Fun.protect ~finally:(fun () -> Scan.close sc) @@ fun () ->
  let n = Array.length nd.names in
  let sp =
    {
      sk = Bytes.make n '\000';
      slib = Array.make n (-1);
      smov = Bytes.make n '\000';
      sline = Array.make n 0;
    }
  in
  let lib_tbl = Strtab.create ~size_hint:(Array.length L.default_library) () in
  Array.iteri (fun i (l : L.t) -> Strtab.add lib_tbl l.L.lname i) L.default_library;
  let cell_of () =
    Scan.expect sc ~what:"cell name";
    let c = Scan.tok_find sc nd.tbl in
    if c < 0 then Scan.fail sc "unknown cell %S in .cells" (Scan.tok sc);
    if Bytes.get sp.sk c <> '\000' then
      Scan.fail sc "duplicate .cells entry for %s" nd.names.(c);
    sp.sline.(c) <- Scan.line_number sc;
    c
  in
  while Scan.next_line sc do
    if Scan.next_tok sc then begin
      if Scan.tok_is_ci sc "UCLA" then ()
      else if Scan.tok_is sc "L" then begin
        let c = cell_of () in
        Scan.expect sc ~what:"library cell name";
        let li = Scan.tok_find sc lib_tbl in
        if li < 0 then Scan.fail sc "unknown library cell %S" (Scan.tok sc);
        Scan.expect sc ~what:"M or F";
        let mov =
          if Scan.tok_is sc "M" then '\001'
          else if Scan.tok_is sc "F" then '\000'
          else Scan.fail sc "expected M or F, got %S" (Scan.tok sc)
        in
        Bytes.set sp.sk c 'L';
        sp.slib.(c) <- li;
        Bytes.set sp.smov c mov
      end
      else begin
        let k =
          if Scan.tok_is sc "I" then 'I'
          else if Scan.tok_is sc "O" then 'O'
          else if Scan.tok_is sc "B" then 'B'
          else Scan.fail sc "unexpected token %S in .cells" (Scan.tok sc)
        in
        let c = cell_of () in
        Bytes.set sp.sk c k;
        if Scan.next_tok sc then Scan.fail sc "trailing tokens in .cells entry"
      end
    end
  done;
  for c = 0 to n - 1 do
    if Bytes.get sp.sk c = '\000' then Scan.fail sc "missing .cells entry for %s" nd.names.(c)
  done;
  sp

(* Settle kinds/libs and create every pin in cell-id, library order — the
   same order [add_logic]/[add_pad] would have used, so pin ids round-trip
   identically. Returns each cell's first pin id plus the taken bitmap the
   net matcher updates. *)
let apply_specs ~fname b (nd : nodes) (sp : specs) =
  let n = Bytes.length sp.sk in
  let libs = L.default_library in
  let lib_opts = Array.map Option.some libs in
  let pin_first = Array.make n 0 in
  let total = ref 0 in
  for c = 0 to n - 1 do
    pin_first.(c) <- !total;
    match Bytes.get sp.sk c with
    | 'L' -> total := !total + Array.length libs.(sp.slib.(c)).L.pins
    | 'I' | 'O' -> incr total
    | _ -> ()
  done;
  B.reserve b ~cells:0 ~pins:!total ~nets:0;
  for c = 0 to n - 1 do
    (match Bytes.get sp.sk c with
    | 'L' ->
        let lib = libs.(sp.slib.(c)) in
        if
          Float.abs (B.cell_width b ~cell:c -. lib.L.width) > 1e-9
          || Float.abs (B.cell_height b ~cell:c -. lib.L.height) > 1e-9
        then
          perr ~name:fname ~line:sp.sline.(c) "cell %s size disagrees with library cell %s"
            nd.names.(c) lib.L.lname;
        B.set_kind b ~cell:c ~kind:D.Logic ~lib:lib_opts.(sp.slib.(c));
        B.set_movable b ~cell:c ~movable:(Bytes.get sp.smov c = '\001')
    | k ->
        let kind = match k with 'I' -> D.Input_pad | 'O' -> D.Output_pad | _ -> D.Blockage in
        B.set_kind b ~cell:c ~kind ~lib:None;
        B.set_movable b ~cell:c ~movable:false);
    B.add_canonical_pins b ~cell:c
  done;
  (pin_first, Bytes.make !total '\000')

(* ---------------------------------------------------------------- nets -- *)

type netmode =
  | Sidecar of { sp : specs; pin_first : int array; taken : Bytes.t }
  | Raw of { nin : int array; nout : int array; pcnt : int array }

(* Sidecar pin resolution matches (direction, exact offsets) against the
   cell's library pins, skipping ones already connected. Offsets printed
   with %.17g reparse to identical floats, so exact equality is the right
   test. *)
let read_nets sc b (nd : nodes) mode =
  Fun.protect ~finally:(fun () -> Scan.close sc) @@ fun () ->
  let num_nets = ref (-1) and num_pins = ref (-1) in
  let net_count = ref 0 and pin_count = ref 0 in
  let libs = L.default_library in
  while Scan.next_line sc do
    if Scan.next_tok sc then begin
      if Scan.tok_is_ci sc "UCLA" then ()
      else if Scan.tok_is_ci sc "NumNets" then begin
        Scan.expect_lit sc ":";
        let n = Scan.expect_int sc ~what:"net count" in
        (* "NetDegree:1" and one "a I" entry *)
        check_room sc ~what:"NumNets" ~min_bytes:16 ~seen:!net_count n;
        num_nets := n;
        B.reserve b ~cells:0 ~pins:0 ~nets:n
      end
      else if Scan.tok_is_ci sc "NumPins" then begin
        Scan.expect_lit sc ":";
        let n = Scan.expect_int sc ~what:"pin count" in
        (* "a I": cell name and direction *)
        check_room sc ~what:"NumPins" ~min_bytes:4 ~seen:!pin_count n;
        num_pins := n;
        (* Sidecar pins come from the library, and apply_specs sized them. *)
        match mode with Raw _ -> B.reserve b ~cells:0 ~pins:n ~nets:0 | Sidecar _ -> ()
      end
      else if Scan.tok_is_ci sc "NetDegree" then begin
        Scan.expect_lit sc ":";
        let deg = Scan.expect_int sc ~what:"net degree" in
        if deg < 1 then Scan.fail sc "bad net degree %d" deg;
        let deg_line = Scan.line_number sc in
        let nname =
          if Scan.next_tok sc then Scan.tok sc else Printf.sprintf "n%d" !net_count
        in
        if Scan.next_tok sc then Scan.fail sc "trailing tokens after net name";
        let nid = B.add_net b ~nname in
        let sinks = ref 0 and driver = ref false in
        for k = 0 to deg - 1 do
          (* Find the next entry line; NetDegree or EOF here means the
             record is shorter than its declared degree. *)
          let found = ref false in
          while not !found do
            if not (Scan.next_line sc) then
              Scan.fail_at sc ~line:deg_line "net %s: expected %d entries, found %d" nname deg k
            else if Scan.next_tok sc then
              if Scan.tok_is_ci sc "NetDegree" then
                Scan.fail_at sc ~line:deg_line "net %s: expected %d entries, found %d" nname
                  deg k
              else found := true
          done;
          let cell = Scan.tok_find sc nd.tbl in
          if cell < 0 then Scan.fail sc "unknown cell %S in net %s" (Scan.tok sc) nname;
          Scan.expect sc ~what:"pin direction";
          let out =
            if Scan.tok_is_ci sc "O" then true
            else if Scan.tok_is_ci sc "I" || Scan.tok_is_ci sc "B" then false
            else Scan.fail sc "bad pin direction %S (expected I, O or B)" (Scan.tok sc)
          in
          let offsets = Scan.next_tok sc in
          if offsets && not (Scan.tok_is sc ":") then
            Scan.fail sc "expected ':' before pin offsets, got %S" (Scan.tok sc);
          let ox = if offsets then Scan.expect_float sc ~what:"pin x offset" else 0.0 in
          let oy = if offsets then Scan.expect_float sc ~what:"pin y offset" else 0.0 in
          if offsets && Scan.next_tok sc then Scan.fail sc "trailing tokens in net entry";
          let pid =
            match mode with
            | Sidecar { sp; pin_first; taken } ->
                let first = pin_first.(cell) in
                let pid = ref (-1) in
                (match Bytes.get sp.sk cell with
                | 'L' ->
                    let pins = libs.(sp.slib.(cell)).L.pins in
                    let k = ref 0 in
                    while !pid < 0 && !k < Array.length pins do
                      let lp = pins.(!k) in
                      if
                        (match lp.L.kind with L.Output -> out | L.Input -> not out)
                        && lp.L.off_x = ox
                        && lp.L.off_y = oy
                        && Bytes.get taken (first + !k) = '\000'
                      then pid := first + !k;
                      incr k
                    done
                | ('I' | 'O') as pad ->
                    if
                      out = (pad = 'I')
                      && ox = 0.0
                      && oy = 0.0
                      && Bytes.get taken first = '\000'
                    then pid := first
                | _ -> ());
                if !pid < 0 then
                  Scan.fail sc "cell %s has no free %s pin at offset (%g, %g)"
                    nd.names.(cell)
                    (if out then "output" else "input")
                    ox oy;
                Bytes.set taken !pid '\001';
                !pid
            | Raw { nin; nout; pcnt } ->
                let pname = "p" ^ string_of_int pcnt.(cell) in
                pcnt.(cell) <- pcnt.(cell) + 1;
                if out then nout.(cell) <- nout.(cell) + 1 else nin.(cell) <- nin.(cell) + 1;
                B.add_raw_pin b ~cell ~pin_name:pname
                  ~dir:(if out then D.Out else D.In)
                  ~off_x:ox ~off_y:oy
                  ~cap:(if out then 0.0 else Defaults.sink_cap)
          in
          (try B.connect b ~net:nid ~pin:pid
           with Util.Errors.Error _ -> Scan.fail sc "net %s has two drivers" nname);
          if out then driver := true else incr sinks;
          incr pin_count
        done;
        if not !driver then Scan.fail_at sc ~line:deg_line "net %s has no driver" nname;
        if !sinks = 0 then Scan.fail_at sc ~line:deg_line "net %s has no sinks" nname;
        incr net_count
      end
      else Scan.fail sc "unexpected token %S (expected NetDegree)" (Scan.tok sc)
    end
  done;
  if !num_nets >= 0 && !net_count <> !num_nets then
    Scan.fail sc "NumNets %d but %d net records" !num_nets !net_count;
  if !num_pins >= 0 && !pin_count <> !num_pins then
    Scan.fail sc "NumPins %d but %d net entries" !num_pins !pin_count

(* Raw ingest saw only terminal flags and pin traffic; settle kinds. A
   terminal whose single pin drives is an input pad, one sinking pin an
   output pad, no pins a blockage; everything else is (fixed) logic with
   an interned generic library cell keyed by pin profile. *)
let infer_kinds b (nd : nodes) nin nout pcnt =
  let cache = Hashtbl.create 8 in
  let gen ~nin ~nout =
    let key = (nin, nout) in
    match Hashtbl.find_opt cache key with
    | Some l -> l
    | None ->
        let l =
          Defaults.synth_libcell ~lname:(Defaults.gen_name ~nin ~nout) ~w:1.0 ~h:1.0
            ~pins:[||]
        in
        Hashtbl.add cache key l;
        l
  in
  for c = 0 to Array.length nd.names - 1 do
    let terminal = Bytes.get nd.term c = '\001' in
    if terminal && pcnt.(c) = 0 then B.set_kind b ~cell:c ~kind:D.Blockage ~lib:None
    else if terminal && pcnt.(c) = 1 && nout.(c) = 1 then
      B.set_kind b ~cell:c ~kind:D.Input_pad ~lib:None
    else if terminal && pcnt.(c) = 1 && nin.(c) = 1 then
      B.set_kind b ~cell:c ~kind:D.Output_pad ~lib:None
    else B.set_kind b ~cell:c ~kind:D.Logic ~lib:(Some (gen ~nin:nin.(c) ~nout:nout.(c)))
  done

(* ----------------------------------------------------------------- pl -- *)

(* Positions land on the frozen design: [read_aux] applies its .pl after
   [B.finish], exactly as [apply_pl] overlays one on a loaded design. *)
let read_pl sc tbl (d : D.t) =
  Fun.protect ~finally:(fun () -> Scan.close sc) @@ fun () ->
  while Scan.next_line sc do
    if Scan.next_tok sc then begin
      if Scan.tok_is_ci sc "UCLA" then ()
      else begin
        let cell = Scan.tok_find sc tbl in
        if cell < 0 then Scan.fail sc "unknown cell %S in .pl" (Scan.tok sc);
        let llx = Scan.expect_float sc ~what:"x coordinate" in
        let lly = Scan.expect_float sc ~what:"y coordinate" in
        d.D.x.{cell} <- llx +. (d.D.w.{cell} /. 2.0);
        d.D.y.{cell} <- lly +. (d.D.h.{cell} /. 2.0);
        if Scan.next_tok sc then begin
          if not (Scan.tok_is sc ":") then
            Scan.fail sc "expected ':' before orientation, got %S" (Scan.tok sc);
          Scan.expect sc ~what:"orientation";
          while Scan.next_tok sc do
            if Scan.tok_is_ci sc "/FIXED" || Scan.tok_is_ci sc "/FIXED_NI" then
              Bytes.set d.D.movable cell '\000'
            else Scan.fail sc "unexpected token %S in .pl record" (Scan.tok sc)
          done
        end
      end
    end
  done

(* ------------------------------------------------------------ read_aux -- *)

let read_aux path =
  let auxname = Filename.basename path in
  let aux_fail fmt = perr ~name:auxname ~line:0 fmt in
  let meta = Meta.create () in
  let fs = read_aux_listing ~auxname path meta in
  let need what = function
    | Some l -> l
    | None -> aux_fail "aux lists no .%s file" what
  in
  let scl_bbox, scl_rowh =
    match fs.f_scl with Some l -> read_scl (open_listed ~auxname l) | None -> (None, None)
  in
  let die =
    match (meta.Meta.die, scl_bbox) with
    | Some r, _ -> r
    | None, Some r -> r
    | None, None -> aux_fail "no die area (need an .scl file or an '# etdp die' header)"
  in
  let row_height =
    match (meta.Meta.rowheight, scl_rowh) with
    | Some h, _ -> h
    | None, Some h -> h
    | None, None -> 1.0
  in
  let dname =
    match meta.Meta.dname with
    | Some n -> n
    | None -> Filename.remove_extension auxname
  in
  let clock = Option.value meta.Meta.clock ~default:Defaults.clock_period in
  let r_per_unit, c_per_unit =
    match meta.Meta.wire with
    | Some rc -> rc
    | None ->
        let w = Rctree.Wire_rc.default in
        (w.Rctree.Wire_rc.r_per_unit, w.Rctree.Wire_rc.c_per_unit)
  in
  let b = B.create ~name:dname ~die ~row_height ~clock_period:clock ~r_per_unit ~c_per_unit in
  let cx = (die.Geom.Rect.xl +. die.Geom.Rect.xh) /. 2.0 in
  let cy = (die.Geom.Rect.yl +. die.Geom.Rect.yh) /. 2.0 in
  let nd = read_nodes (open_listed ~auxname (need "nodes" fs.f_nodes)) b ~cx ~cy in
  let mode =
    match fs.f_cells with
    | Some l ->
        let sp = read_cells (open_listed ~auxname l) nd in
        let pin_first, taken = apply_specs ~fname:(Filename.basename l.fpath) b nd sp in
        Sidecar { sp; pin_first; taken }
    | None ->
        let n = Array.length nd.names in
        Raw { nin = Array.make n 0; nout = Array.make n 0; pcnt = Array.make n 0 }
  in
  read_nets (open_listed ~auxname (need "nets" fs.f_nets)) b nd mode;
  (match mode with
  | Raw { nin; nout; pcnt } -> infer_kinds b nd nin nout pcnt
  | Sidecar _ -> ());
  let d = B.finish b in
  read_pl (open_listed ~auxname (need "pl" fs.f_pl)) nd.tbl d;
  (match meta.Meta.iodelay with
  | Some (i, o) ->
      d.D.input_delay <- i;
      d.D.output_delay <- o
  | None -> ());
  d

(* ------------------------------------------------------------- writers -- *)

let pg = Fixup.print

let with_out path f =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> f oc)

(* The .cells sidecar can only reproduce pins when every cell is
   library-faithful; otherwise we omit it and let re-ingest re-infer. *)
let faithful (d : D.t) =
  let ok = ref true in
  for c = 0 to D.num_cells d - 1 do
    if !ok && not (Defaults.cell_faithful d c) then ok := false
  done;
  !ok

let write_nodes oc (d : D.t) =
  output_string oc "UCLA nodes 1.0\n";
  let nterm = ref 0 in
  for c = 0 to d.D.n_cells - 1 do
    if not (D.is_movable d c) then incr nterm
  done;
  Printf.fprintf oc "NumNodes : %d\nNumTerminals : %d\n" d.D.n_cells !nterm;
  for c = 0 to d.D.n_cells - 1 do
    Printf.fprintf oc "%s %s %s%s\n" d.D.cell_names.(c) (pg d.D.w.{c}) (pg d.D.h.{c})
      (if D.is_movable d c then "" else " terminal")
  done

let write_nets oc (d : D.t) =
  output_string oc "UCLA nets 1.0\n";
  Printf.fprintf oc "NumNets : %d\nNumPins : %d\n" d.D.n_nets
    d.D.net_pin_off.(d.D.n_nets);
  for n = 0 to d.D.n_nets - 1 do
    let off = d.D.net_pin_off.(n) in
    let deg = d.D.net_pin_off.(n + 1) - off in
    Printf.fprintf oc "NetDegree : %d %s\n" deg d.D.net_names.(n);
    for k = off to off + deg - 1 do
      let pid = d.D.net_pin_ids.(k) in
      let dchar = match D.pin_dir d pid with D.Out -> 'O' | D.In -> 'I' in
      Printf.fprintf oc "\t%s %c : %s %s\n"
        d.D.cell_names.(d.D.pin_owner.(pid))
        dchar
        (pg d.D.pin_off_x.{pid})
        (pg d.D.pin_off_y.{pid})
    done
  done

let write_pl_oc oc (d : D.t) =
  output_string oc "UCLA pl 1.0\n";
  for c = 0 to d.D.n_cells - 1 do
    let llx = Fixup.ll ~half:(d.D.w.{c} /. 2.0) d.D.x.{c} in
    let lly = Fixup.ll ~half:(d.D.h.{c} /. 2.0) d.D.y.{c} in
    Printf.fprintf oc "%s %s %s : N%s\n" d.D.cell_names.(c) (pg llx) (pg lly)
      (if D.is_movable d c then "" else " /FIXED")
  done

let write_scl oc (d : D.t) =
  output_string oc "UCLA scl 1.0\n";
  let die = d.D.die in
  let rh = d.D.row_height in
  let height = die.Geom.Rect.yh -. die.Geom.Rect.yl in
  let width = die.Geom.Rect.xh -. die.Geom.Rect.xl in
  let nrows = max 1 (int_of_float (floor ((height /. rh) +. 1e-9))) in
  let nsites = max 1 (int_of_float (floor (width +. 1e-9))) in
  Printf.fprintf oc "NumRows : %d\n" nrows;
  for i = 0 to nrows - 1 do
    Printf.fprintf oc
      "CoreRow Horizontal\n\
      \  Coordinate : %s\n\
      \  Height : %s\n\
      \  Sitewidth : 1\n\
      \  Sitespacing : 1\n\
      \  Siteorient : N\n\
      \  Sitesymmetry : Y\n\
      \  SubrowOrigin : %s NumSites : %d\n\
       End\n"
      (pg (die.Geom.Rect.yl +. (float_of_int i *. rh)))
      (pg rh)
      (pg die.Geom.Rect.xl)
      nsites
  done

let write_cells oc (d : D.t) =
  output_string oc "UCLA cells 1.0\n";
  for c = 0 to d.D.n_cells - 1 do
    match D.kind d c with
    | D.Logic ->
        let lib = d.D.libs.(d.D.lib_idx.(c)) in
        Printf.fprintf oc "L %s %s %c\n" d.D.cell_names.(c) lib.L.lname
          (if D.is_movable d c then 'M' else 'F')
    | D.Input_pad -> Printf.fprintf oc "I %s\n" d.D.cell_names.(c)
    | D.Output_pad -> Printf.fprintf oc "O %s\n" d.D.cell_names.(c)
    | D.Blockage -> Printf.fprintf oc "B %s\n" d.D.cell_names.(c)
  done

let write ~dir ~stem (d : D.t) =
  let sidecar = faithful d in
  let file ext = Filename.concat dir (stem ^ ext) in
  with_out (file ".nodes") (fun oc -> write_nodes oc d);
  with_out (file ".nets") (fun oc -> write_nets oc d);
  with_out (file ".pl") (fun oc -> write_pl_oc oc d);
  with_out (file ".scl") (fun oc -> write_scl oc d);
  if sidecar then with_out (file ".cells") (fun oc -> write_cells oc d);
  let aux = file ".aux" in
  with_out aux (fun oc ->
      Printf.fprintf oc "RowBasedPlacement : %s.nodes %s.nets %s.pl %s.scl%s\n" stem stem
        stem stem
        (if sidecar then " " ^ stem ^ ".cells" else "");
      Meta.emit oc d);
  aux

let write_pl path d = with_out path (fun oc -> write_pl_oc oc d)

let apply_pl (d : D.t) path =
  let tbl = Strtab.create ~size_hint:d.D.n_cells () in
  Array.iteri (fun i name -> Strtab.add tbl name i) d.D.cell_names;
  read_pl (Scan.open_file ~specials path) tbl d
