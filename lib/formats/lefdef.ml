(** LEF/DEF reader/writer (see the interface and DESIGN.md §13). *)

module D = Netlist.Design
module B = Netlist.Builder
module L = Netlist.Libcell

let lef_specials = ";"
let def_specials = "();"
let pg = Fixup.print

let dir_of_lp (lp : L.lib_pin) = match lp.kind with L.Input -> D.In | L.Output -> D.Out

(* ===================================================================== *)
(* LEF                                                                    *)
(* ===================================================================== *)

(* Finalized macro pin: centre-relative offset, resolved capacitance. *)
type mpin = { pname : string; pdir : D.dir; pcap : float; poffx : float; poffy : float }
type fmac = { fname : string; fclass : string; fw : float; fh : float; fpins : mpin array }
type lef = { macros : (string, fmac) Hashtbl.t; mutable site_h : float option }

(* In-flight parse records. *)
type lpin = {
  lpname : string;
  mutable ldir : D.dir option;
  mutable lcap : float option;
  mutable lrect : (float * float) option; (* rect centre, macro-origin frame *)
}

type lmacro = {
  lmname : string;
  lmline : int;
  mutable lmclass : string;
  mutable lmw : float;
  mutable lmh : float;
  mutable lmpins : lpin list; (* reversed *)
}

type lstate =
  | Top
  | Skip (* unhandled top-level block; pops at END *)
  | InSite
  | InMacro of lmacro
  | InPin of lmacro * lpin
  | InPort of lmacro * lpin

let read_lef path =
  let sc = Scan.open_file ~specials:lef_specials path in
  Fun.protect ~finally:(fun () -> Scan.close sc) @@ fun () ->
  let lef = { macros = Hashtbl.create 16; site_h = None } in
  let state = ref Top in
  let size_of () =
    let w = Scan.expect_float sc ~what:"macro width" in
    Scan.expect_lit sc "BY";
    let h = Scan.expect_float sc ~what:"macro height" in
    (w, h)
  in
  let finish_macro (m : lmacro) =
    if Float.is_nan m.lmw then
      Scan.fail_at sc ~line:m.lmline "macro %s has no SIZE" m.lmname;
    let pins =
      List.rev_map
        (fun (p : lpin) ->
          let pdir =
            match p.ldir with
            | Some d -> d
            | None -> assert false (* checked at END of the pin *)
          in
          let rcx, rcy = match p.lrect with Some c -> c | None -> (0.0, 0.0) in
          let pcap =
            match p.lcap with
            | Some c -> c
            | None -> ( match pdir with D.In -> Defaults.sink_cap | D.Out -> 0.0)
          in
          {
            pname = p.lpname;
            pdir;
            pcap;
            poffx = rcx -. (m.lmw /. 2.0);
            poffy = rcy -. (m.lmh /. 2.0);
          })
        m.lmpins
      |> Array.of_list
    in
    Hashtbl.replace lef.macros m.lmname
      { fname = m.lmname; fclass = m.lmclass; fw = m.lmw; fh = m.lmh; fpins = pins }
  in
  let finished = ref false in
  while (not !finished) && Scan.next_line sc do
    if Scan.next_tok sc then begin
      match !state with
      | Top ->
          if Scan.tok_is_ci sc "MACRO" then begin
            Scan.expect sc ~what:"macro name";
            let name = Scan.tok sc in
            if Hashtbl.mem lef.macros name then Scan.fail sc "duplicate macro %S" name;
            state :=
              InMacro
                {
                  lmname = name;
                  lmline = Scan.line_number sc;
                  lmclass = "CORE";
                  lmw = nan;
                  lmh = nan;
                  lmpins = [];
                }
          end
          else if Scan.tok_is_ci sc "SITE" then state := InSite
          else if Scan.tok_is_ci sc "END" then begin
            if Scan.next_tok sc && Scan.tok_is_ci sc "LIBRARY" then finished := true
          end
          else if
            Scan.tok_is_ci sc "UNITS"
            || Scan.tok_is_ci sc "PROPERTYDEFINITIONS"
            || Scan.tok_is_ci sc "LAYER"
            || Scan.tok_is_ci sc "VIA"
            || Scan.tok_is_ci sc "VIARULE"
            || Scan.tok_is_ci sc "SPACING"
            || Scan.tok_is_ci sc "NONDEFAULTRULE"
          then state := Skip
          else () (* VERSION, DIVIDERCHAR, MANUFACTURINGGRID, ... *)
      | Skip -> if Scan.tok_is_ci sc "END" then state := Top
      | InSite ->
          if Scan.tok_is_ci sc "SIZE" then begin
            let _, h = size_of () in
            lef.site_h <- Some h
          end
          else if Scan.tok_is_ci sc "END" then state := Top
      | InMacro m ->
          if Scan.tok_is_ci sc "CLASS" then begin
            Scan.expect sc ~what:"macro class";
            m.lmclass <- String.uppercase_ascii (Scan.tok sc)
          end
          else if Scan.tok_is_ci sc "SIZE" then begin
            let w, h = size_of () in
            m.lmw <- w;
            m.lmh <- h
          end
          else if Scan.tok_is_ci sc "PIN" then begin
            Scan.expect sc ~what:"pin name";
            state :=
              InPin (m, { lpname = Scan.tok sc; ldir = None; lcap = None; lrect = None })
          end
          else if Scan.tok_is_ci sc "END" then begin
            finish_macro m;
            state := Top
          end
          else () (* FOREIGN, ORIGIN, SYMMETRY, SITE, ... *)
      | InPin (m, p) ->
          if Scan.tok_is_ci sc "DIRECTION" then begin
            Scan.expect sc ~what:"pin direction";
            p.ldir <-
              Some
                (if Scan.tok_is_ci sc "OUTPUT" then D.Out
                 else if
                   Scan.tok_is_ci sc "INPUT"
                   || Scan.tok_is_ci sc "INOUT"
                   || Scan.tok_is_ci sc "FEEDTHRU"
                 then D.In
                 else Scan.fail sc "bad pin direction %S" (Scan.tok sc))
          end
          else if Scan.tok_is_ci sc "CAPACITANCE" then
            p.lcap <- Some (Scan.expect_float sc ~what:"pin capacitance")
          else if Scan.tok_is_ci sc "PORT" then state := InPort (m, p)
          else if Scan.tok_is_ci sc "END" then begin
            if p.ldir = None then
              Scan.fail sc "pin %s of macro %s has no DIRECTION" p.lpname m.lmname;
            m.lmpins <- p :: m.lmpins;
            state := InMacro m
          end
          else () (* USE, SHAPE, ANTENNA*, ... *)
      | InPort (m, p) ->
          if Scan.tok_is_ci sc "RECT" then begin
            let xl = Scan.expect_float sc ~what:"rect xl" in
            let yl = Scan.expect_float sc ~what:"rect yl" in
            let xh = Scan.expect_float sc ~what:"rect xh" in
            let yh = Scan.expect_float sc ~what:"rect yh" in
            if p.lrect = None then p.lrect <- Some ((xl +. xh) /. 2.0, (yl +. yh) /. 2.0)
          end
          else if Scan.tok_is_ci sc "END" then state := InPin (m, p)
          else () (* LAYER, ... *)
    end
  done;
  (match !state with
  | Top -> ()
  | Skip -> Scan.fail sc "unexpected end of file in skipped block"
  | InSite -> Scan.fail sc "unexpected end of file in SITE"
  | InMacro m -> Scan.fail sc "unexpected end of file in macro %s" m.lmname
  | InPin (m, p) | InPort (m, p) ->
      Scan.fail sc "unexpected end of file in pin %s of macro %s" p.lpname m.lmname);
  lef

(* ===================================================================== *)
(* DEF reader                                                             *)
(* ===================================================================== *)

(* Resolved macro: what a COMPONENTS record instantiates. *)
type rmac = {
  rkind : D.kind;
  rlib : L.t option;
  rw : float;
  rh : float;
  rpins : mpin array;
}

let rmac_of_lib (lib : L.t) =
  {
    rkind = D.Logic;
    rlib = Some lib;
    rw = lib.L.width;
    rh = lib.L.height;
    rpins =
      Array.map
        (fun (lp : L.lib_pin) ->
          {
            pname = lp.L.pname;
            pdir = dir_of_lp lp;
            pcap = lp.L.cap;
            poffx = lp.L.off_x;
            poffy = lp.L.off_y;
          })
        lib.L.pins;
  }

(* A LEF macro agreeing with the default-library cell of the same name
   (geometry and pin names) keeps the library cell — and its timing view. *)
let lef_matches_lib (m : fmac) (lib : L.t) =
  m.fw = lib.L.width
  && m.fh = lib.L.height
  && Array.length m.fpins = Array.length lib.L.pins
  && Array.for_all2 (fun (p : mpin) (lp : L.lib_pin) -> p.pname = lp.L.pname) m.fpins
       lib.L.pins

let rmac_of_fmac (m : fmac) =
  if m.fclass = "BLOCK" || Array.length m.fpins = 0 then
    { rkind = D.Blockage; rlib = None; rw = m.fw; rh = m.fh; rpins = [||] }
  else if m.fclass = "PAD" && Array.length m.fpins = 1 then begin
    let kind = match m.fpins.(0).pdir with D.Out -> D.Input_pad | D.In -> D.Output_pad in
    { rkind = kind; rlib = None; rw = m.fw; rh = m.fh; rpins = m.fpins }
  end
  else begin
    let lib = Defaults.synth_libcell ~lname:m.fname ~w:m.fw ~h:m.fh ~pins:[||] in
    { rkind = D.Logic; rlib = Some lib; rw = m.fw; rh = m.fh; rpins = m.fpins }
  end

let read_def ?lef path =
  let defname = Filename.basename path in
  let sc = Scan.open_file ~specials:def_specials ~name:defname path in
  Fun.protect ~finally:(fun () -> Scan.close sc) @@ fun () ->
  let meta = Meta.create () in
  let units = ref nan in
  let diearea = ref None in
  let design_stmt = ref None in
  let row_ys = ref [] in
  let builder = ref None in
  let comp_tbl = Strtab.create () in
  let pin_tbl = Strtab.create () in
  let cell_rmac : (int, rmac) Hashtbl.t = Hashtbl.create 64 in
  let rmac_cache : (string, rmac) Hashtbl.t = Hashtbl.create 16 in
  let nblockages = ref 0 in
  (* Token streams: [next_stmt] is the statement level (collects # etdp
     headers); [req] demands the next token inside a statement. *)
  let rec next_stmt () =
    if Scan.next_tok sc then true
    else if Scan.at_hash sc then begin
      Meta.scan_comment meta sc;
      next_stmt ()
    end
    else if Scan.next_line sc then next_stmt ()
    else false
  in
  let req what =
    if not (Scan.next_tok_ml sc) then Scan.fail sc "unexpected end of file in %s" what
  in
  let req_float what =
    req what;
    Scan.tok_float sc
  in
  let req_lit lit what =
    req what;
    if not (Scan.tok_is_ci sc lit) then
      Scan.fail sc "expected '%s' in %s, got %S" lit what (Scan.tok sc)
  in
  let skip_to_semi what =
    let fin = ref false in
    while not !fin do
      req what;
      if Scan.tok_is sc ";" then fin := true
    done
  in
  let skip_section name =
    let fin = ref false in
    while not !fin do
      req (name ^ " section");
      if Scan.tok_is_ci sc "END" then begin
        req (name ^ " section");
        if Scan.tok_is_ci sc name then fin := true
      end
    done
  in
  let point what =
    req_lit "(" what;
    let x = req_float what in
    let y = req_float what in
    req_lit ")" what;
    (x, y)
  in
  let resolve_macro name =
    match Hashtbl.find_opt rmac_cache name with
    | Some r -> r
    | None ->
        let lib_opt =
          match L.find_in_library name with
          | lib -> Some lib
          | exception Invalid_argument _ -> None
        in
        let mac_opt =
          match lef with Some l -> Hashtbl.find_opt l.macros name | None -> None
        in
        let r =
          match (lib_opt, mac_opt) with
          | Some lib, None -> rmac_of_lib lib
          | Some lib, Some m when lef_matches_lib m lib -> rmac_of_lib lib
          | _, Some m -> rmac_of_fmac m
          | None, None -> Scan.fail sc "unknown macro %S" name
        in
        Hashtbl.add rmac_cache name r;
        r
  in
  let ensure_builder () =
    match !builder with
    | Some bd -> bd
    | None ->
        if Float.is_nan !units then
          Scan.fail sc "UNITS DISTANCE MICRONS must precede design contents";
        let die =
          match (meta.Meta.die, !diearea) with
          | Some r, _ -> r
          | None, Some r -> r
          | None, None -> Scan.fail sc "DIEAREA must precede design contents"
        in
        let row_height =
          match meta.Meta.rowheight with
          | Some h -> h
          | None -> (
              match (match lef with Some l -> l.site_h | None -> None) with
              | Some h -> h
              | None -> (
                  (* Infer from the ROW grid: smallest positive y delta. *)
                  let ys = List.sort_uniq compare !row_ys in
                  let rec min_delta = function
                    | a :: (b :: _ as rest) ->
                        let d = (b -. a) /. !units in
                        let r = min_delta rest in
                        if d > 0.0 && (r <= 0.0 || d < r) then d else r
                    | _ -> 0.0
                  in
                  match min_delta ys with d when d > 0.0 -> d | _ -> 1.0))
        in
        let dname =
          match (meta.Meta.dname, !design_stmt) with
          | Some n, _ -> n
          | None, Some n -> n
          | None, None -> Filename.remove_extension defname
        in
        let clock = Option.value meta.Meta.clock ~default:Defaults.clock_period in
        let r_per_unit, c_per_unit =
          match meta.Meta.wire with
          | Some rc -> rc
          | None ->
              let w = Rctree.Wire_rc.default in
              (w.Rctree.Wire_rc.r_per_unit, w.Rctree.Wire_rc.c_per_unit)
        in
        let b =
          B.create ~name:dname ~die ~row_height ~clock_period:clock ~r_per_unit
            ~c_per_unit
        in
        let cx = (die.Geom.Rect.xl +. die.Geom.Rect.xh) /. 2.0 in
        let cy = (die.Geom.Rect.yl +. die.Geom.Rect.yh) /. 2.0 in
        builder := Some (b, cx, cy);
        (b, cx, cy)
  in
  let read_components () =
    let declared = (req "COMPONENTS count"; Scan.tok_int sc) in
    req_lit ";" "COMPONENTS header";
    let count = ref 0 and fin = ref false in
    while not !fin do
      req "COMPONENTS section";
      if Scan.tok_is sc "-" then begin
        req "component name";
        if Scan.tok_find sc comp_tbl >= 0 then
          Scan.fail sc "duplicate component %S" (Scan.tok sc);
        let cname = Scan.tok sc in
        req "component macro";
        let rm = resolve_macro (Scan.tok sc) in
        let pos = ref None and fixed = ref false in
        let rec_done = ref false in
        while not !rec_done do
          req "component record";
          if Scan.tok_is sc ";" then rec_done := true
          else if Scan.tok_is sc "+" then begin
            req "component property";
            if Scan.tok_is_ci sc "PLACED" || Scan.tok_is_ci sc "FIXED" then begin
              fixed := Scan.tok_is_ci sc "FIXED";
              pos := Some (point "component placement")
            end
            (* + SOURCE, + WEIGHT, ...: values fall through below *)
          end
          else () (* orientation / property values *)
        done;
        let b, cx, cy = ensure_builder () in
        let x, y =
          match !pos with
          | Some (xd, yd) ->
              ((xd /. !units) +. (rm.rw /. 2.0), (yd /. !units) +. (rm.rh /. 2.0))
          | None -> (cx, cy)
        in
        let movable = rm.rkind = D.Logic && not !fixed in
        let cell =
          B.add_raw_cell b ~cname ~kind:rm.rkind ~lib:rm.rlib ~w:rm.rw ~h:rm.rh ~movable
            ~x ~y
        in
        Array.iter
          (fun (p : mpin) ->
            ignore
              (B.add_raw_pin b ~cell ~pin_name:p.pname ~dir:p.pdir ~off_x:p.poffx
                 ~off_y:p.poffy ~cap:p.pcap))
          rm.rpins;
        Strtab.add comp_tbl cname cell;
        Hashtbl.add cell_rmac cell rm;
        incr count
      end
      else if Scan.tok_is_ci sc "END" then begin
        req_lit "COMPONENTS" "END COMPONENTS";
        if !count <> declared then
          Scan.fail sc "COMPONENTS declared %d records but has %d" declared !count;
        fin := true
      end
      else Scan.fail sc "expected '-' or END COMPONENTS, got %S" (Scan.tok sc)
    done
  in
  let read_pins () =
    let declared = (req "PINS count"; Scan.tok_int sc) in
    req_lit ";" "PINS header";
    let count = ref 0 and fin = ref false in
    while not !fin do
      req "PINS section";
      if Scan.tok_is sc "-" then begin
        req "pin name";
        if Scan.tok_find sc pin_tbl >= 0 then
          Scan.fail sc "duplicate pin %S" (Scan.tok sc);
        let pname = Scan.tok sc in
        let dir = ref None and pos = ref None in
        let rec_done = ref false in
        while not !rec_done do
          req "pin record";
          if Scan.tok_is sc ";" then rec_done := true
          else if Scan.tok_is sc "+" then begin
            req "pin property";
            if Scan.tok_is_ci sc "DIRECTION" then begin
              req "pin direction";
              if Scan.tok_is_ci sc "INPUT" then dir := Some D.Input_pad
              else if Scan.tok_is_ci sc "OUTPUT" then dir := Some D.Output_pad
              else if Scan.tok_is_ci sc "INOUT" || Scan.tok_is_ci sc "FEEDTHRU" then
                dir := Some D.Output_pad
              else Scan.fail sc "bad pin DIRECTION %S" (Scan.tok sc)
            end
            else if Scan.tok_is_ci sc "PLACED" || Scan.tok_is_ci sc "FIXED" then
              pos := Some (point "pin placement")
          end
          else if Scan.tok_is sc "(" then begin
            (* bare layer rect "( x y )" inside + LAYER: consume *)
            let _ = req_float "pin rect" in
            let _ = req_float "pin rect" in
            req_lit ")" "pin rect"
          end
          else ()
        done;
        let kind =
          match !dir with
          | Some k -> k
          | None -> Scan.fail sc "pin %s has no DIRECTION" pname
        in
        let b, cx, cy = ensure_builder () in
        let x, y =
          match !pos with
          | Some (xd, yd) -> (xd /. !units, yd /. !units)
          | None -> (cx, cy)
        in
        let cell =
          B.add_raw_cell b ~cname:pname ~kind ~lib:None ~w:1.0 ~h:1.0 ~movable:false ~x ~y
        in
        let pdir, pcap = if kind = D.Input_pad then (D.Out, 0.0) else (D.In, 3.0) in
        ignore
          (B.add_raw_pin b ~cell ~pin_name:"p" ~dir:pdir ~off_x:0.0 ~off_y:0.0 ~cap:pcap);
        Hashtbl.add cell_rmac cell
          {
            rkind = kind;
            rlib = None;
            rw = 1.0;
            rh = 1.0;
            rpins = [| { pname = "p"; pdir; pcap; poffx = 0.0; poffy = 0.0 } |];
          };
        Strtab.add pin_tbl pname cell;
        incr count
      end
      else if Scan.tok_is_ci sc "END" then begin
        req_lit "PINS" "END PINS";
        if !count <> declared then
          Scan.fail sc "PINS declared %d records but has %d" declared !count;
        fin := true
      end
      else Scan.fail sc "expected '-' or END PINS, got %S" (Scan.tok sc)
    done
  in
  let read_nets () =
    let declared = (req "NETS count"; Scan.tok_int sc) in
    req_lit ";" "NETS header";
    let b, _, _ = ensure_builder () in
    let count = ref 0 and fin = ref false in
    while not !fin do
      req "NETS section";
      if Scan.tok_is sc "-" then begin
        req "net name";
        let nname = Scan.tok sc in
        let deg_line = Scan.line_number sc in
        let nid = B.add_net b ~nname in
        let driver = ref false and sinks = ref 0 in
        let rec_done = ref false in
        while not !rec_done do
          req "net record";
          if Scan.tok_is sc ";" then rec_done := true
          else if Scan.tok_is sc "(" then begin
            req "net entry";
            let cell =
              if Scan.tok_is sc "PIN" then begin
                req "pad pin name";
                let c = Scan.tok_find sc pin_tbl in
                if c < 0 then Scan.fail sc "unknown DEF pin %S in net %s" (Scan.tok sc) nname;
                c
              end
              else
                let c = Scan.tok_find sc comp_tbl in
                if c < 0 then Scan.fail sc "unknown component %S in net %s" (Scan.tok sc) nname;
                c
            in
            req "component pin name";
            let pin_name = Scan.tok sc in
            req_lit ")" "net entry";
            let rm = Hashtbl.find cell_rmac cell in
            let dir = ref None in
            Array.iter
              (fun (p : mpin) -> if p.pname = pin_name && !dir = None then dir := Some p.pdir)
              rm.rpins;
            let dir =
              match !dir with
              | Some d -> d
              | None -> Scan.fail sc "component has no pin %S in net %s" pin_name nname
            in
            let pid =
              try B.pin_of_cell b ~cell ~pin_name
              with Invalid_argument _ ->
                Scan.fail sc "component has no pin %S in net %s" pin_name nname
            in
            (try B.connect b ~net:nid ~pin:pid
             with Util.Errors.Error _ -> Scan.fail sc "net %s has two drivers" nname);
            (match dir with D.In -> incr sinks | D.Out -> driver := true)
          end
          else if Scan.tok_is sc "+" then () (* + USE/WEIGHT/...; values skipped *)
          else () (* property values *)
        done;
        if not !driver then Scan.fail_at sc ~line:deg_line "net %s has no driver" nname;
        if !sinks = 0 then Scan.fail_at sc ~line:deg_line "net %s has no sinks" nname;
        incr count
      end
      else if Scan.tok_is_ci sc "END" then begin
        req_lit "NETS" "END NETS";
        if !count <> declared then
          Scan.fail sc "NETS declared %d records but has %d" declared !count;
        fin := true
      end
      else Scan.fail sc "expected '-' or END NETS, got %S" (Scan.tok sc)
    done
  in
  let read_blockages () =
    let declared = (req "BLOCKAGES count"; Scan.tok_int sc) in
    req_lit ";" "BLOCKAGES header";
    let count = ref 0 and fin = ref false in
    while not !fin do
      req "BLOCKAGES section";
      if Scan.tok_is sc "-" then begin
        incr count;
        req "blockage kind";
        if Scan.tok_is_ci sc "PLACEMENT" then begin
          let rec_done = ref false in
          while not !rec_done do
            req "blockage record";
            if Scan.tok_is sc ";" then rec_done := true
            else if Scan.tok_is_ci sc "RECT" then begin
              let xl, yl = point "blockage rect" in
              let xh, yh = point "blockage rect" in
              if xh < xl || yh < yl then Scan.fail sc "inverted blockage rect";
              let b, _, _ = ensure_builder () in
              let w = (xh -. xl) /. !units and h = (yh -. yl) /. !units in
              ignore
                (B.add_blockage b
                   ~cname:(Printf.sprintf "blk%d" !nblockages)
                   ~x:((xl /. !units) +. (w /. 2.0))
                   ~y:((yl /. !units) +. (h /. 2.0))
                   ~w ~h);
              incr nblockages
            end
            else () (* + PUSHDOWN, + COMPONENT name, ... *)
          done
        end
        else skip_to_semi "blockage record" (* routing blockage: irrelevant here *)
      end
      else if Scan.tok_is_ci sc "END" then begin
        req_lit "BLOCKAGES" "END BLOCKAGES";
        if !count <> declared then
          Scan.fail sc "BLOCKAGES declared %d records but has %d" declared !count;
        fin := true
      end
      else Scan.fail sc "expected '-' or END BLOCKAGES, got %S" (Scan.tok sc)
    done
  in
  let finished = ref false in
  while (not !finished) && next_stmt () do
    if
      Scan.tok_is_ci sc "VERSION"
      || Scan.tok_is_ci sc "DIVIDERCHAR"
      || Scan.tok_is_ci sc "BUSBITCHARS"
      || Scan.tok_is_ci sc "TECHNOLOGY"
      || Scan.tok_is_ci sc "HISTORY"
      || Scan.tok_is_ci sc "TRACKS"
      || Scan.tok_is_ci sc "GCELLGRID"
      || Scan.tok_is_ci sc "COMPONENTMASKSHIFT"
    then skip_to_semi "statement"
    else if Scan.tok_is_ci sc "DESIGN" then begin
      req "design name";
      design_stmt := Some (Scan.tok sc);
      skip_to_semi "DESIGN statement"
    end
    else if Scan.tok_is_ci sc "UNITS" then begin
      req_lit "DISTANCE" "UNITS statement";
      req_lit "MICRONS" "UNITS statement";
      let u = req_float "UNITS value" in
      if u <= 0.0 then Scan.fail sc "bad UNITS DISTANCE MICRONS %g" u;
      units := u;
      skip_to_semi "UNITS statement"
    end
    else if Scan.tok_is_ci sc "DIEAREA" then begin
      let pts = ref [] in
      let fin = ref false in
      while not !fin do
        req "DIEAREA statement";
        if Scan.tok_is sc ";" then fin := true
        else if Scan.tok_is sc "(" then begin
          let x = req_float "DIEAREA point" in
          let y = req_float "DIEAREA point" in
          req_lit ")" "DIEAREA point";
          pts := (x, y) :: !pts
        end
        else Scan.fail sc "expected '(' or ';' in DIEAREA, got %S" (Scan.tok sc)
      done;
      match !pts with
      | [ (x2, y2); (x1, y1) ] ->
          diearea :=
            Some
              (Geom.Rect.make ~xl:(min x1 x2 /. !units) ~yl:(min y1 y2 /. !units)
                 ~xh:(max x1 x2 /. !units) ~yh:(max y1 y2 /. !units))
      | l when List.length l > 2 -> Scan.fail sc "polygonal DIEAREA unsupported"
      | _ -> Scan.fail sc "DIEAREA needs two points"
    end
    else if Scan.tok_is_ci sc "ROW" then begin
      req "row name";
      req "row site";
      let _x = req_float "row x" in
      let y = req_float "row y" in
      row_ys := y :: !row_ys;
      skip_to_semi "ROW statement"
    end
    else if
      Scan.tok_is_ci sc "PROPERTYDEFINITIONS"
      || Scan.tok_is_ci sc "VIAS"
      || Scan.tok_is_ci sc "NONDEFAULTRULES"
      || Scan.tok_is_ci sc "REGIONS"
      || Scan.tok_is_ci sc "GROUPS"
      || Scan.tok_is_ci sc "SPECIALNETS"
      || Scan.tok_is_ci sc "STYLES"
      || Scan.tok_is_ci sc "FILLS"
      || Scan.tok_is_ci sc "SCANCHAINS"
      || Scan.tok_is_ci sc "SLOTS"
      || Scan.tok_is_ci sc "PINPROPERTIES"
    then skip_section (Scan.tok sc)
    else if Scan.tok_is_ci sc "COMPONENTS" then read_components ()
    else if Scan.tok_is_ci sc "PINS" then read_pins ()
    else if Scan.tok_is_ci sc "NETS" then read_nets ()
    else if Scan.tok_is_ci sc "BLOCKAGES" then read_blockages ()
    else if Scan.tok_is_ci sc "END" then begin
      req_lit "DESIGN" "END statement";
      finished := true
    end
    else Scan.fail sc "unexpected token %S (unsupported DEF statement)" (Scan.tok sc)
  done;
  if not !finished then Scan.fail sc "missing END DESIGN";
  match !builder with
  | None -> Scan.fail sc "DEF has no COMPONENTS, PINS or NETS"
  | Some (b, _, _) ->
      let d = B.finish b in
      (match meta.Meta.iodelay with
      | Some (i, o) ->
          d.D.input_delay <- i;
          d.D.output_delay <- o
      | None -> ());
      d

(* ===================================================================== *)
(* Writers                                                                *)
(* ===================================================================== *)

let units_out = 1024.0 (* power of two: DBU scaling is exact *)

(* Macro plan: per-cell macro names plus the macro definitions to emit.
   Library-faithful cells share macros; anything else gets a per-cell
   macro so the LEF/DEF pair stays a lossless carrier. *)
type macro_src =
  | Mlib of L.t
  | Mcell of int (* per-cell macro: pins straight from the design arrays *)
  | Mpad of [ `In | `Out ]
  | Mblock of float * float

let plan_macros (d : D.t) =
  let order = ref [] in
  let seen = Hashtbl.create 16 in
  let blocks = Hashtbl.create 4 in
  let register name src =
    if not (Hashtbl.mem seen name) then begin
      Hashtbl.add seen name src;
      order := name :: !order
    end;
    name
  in
  let comp_macro =
    Array.init d.D.n_cells (fun c ->
        let faithful = Defaults.cell_faithful d c in
        match D.kind d c with
        | D.Logic when faithful -> register d.D.libs.(d.D.lib_idx.(c)).L.lname (Mlib d.D.libs.(d.D.lib_idx.(c)))
        | D.Input_pad when faithful -> register "ETDP_PAD_IN" (Mpad `In)
        | D.Output_pad when faithful -> register "ETDP_PAD_OUT" (Mpad `Out)
        | D.Blockage when faithful ->
            let key = (d.D.w.{c}, d.D.h.{c}) in
            let name =
              match Hashtbl.find_opt blocks key with
              | Some n -> n
              | None ->
                  let n = Printf.sprintf "ETDP_BLOCK_%d" (Hashtbl.length blocks) in
                  Hashtbl.add blocks key n;
                  n
            in
            register name (Mblock (d.D.w.{c}, d.D.h.{c}))
        | _ -> register (Printf.sprintf "ETDP_CELL_%d" c) (Mcell c))
  in
  (comp_macro, List.rev !order, seen)

let with_out path f =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> f oc)

let emit_macro_pin oc ~w ~h ~pname ~dir ~cap ~offx ~offy =
  Printf.fprintf oc "  PIN %s\n    DIRECTION %s ;\n" pname
    (match dir with D.In -> "INPUT" | D.Out -> "OUTPUT");
  if cap <> 0.0 || dir = D.In then Printf.fprintf oc "    CAPACITANCE %s ;\n" (pg cap);
  let ex = Fixup.hi ~lo:(w /. 2.0) offx in
  let ey = Fixup.hi ~lo:(h /. 2.0) offy in
  Printf.fprintf oc "    PORT\n      LAYER metal1 ;\n      RECT %s %s %s %s ;\n    END\n"
    (pg ex) (pg ey) (pg ex) (pg ey);
  Printf.fprintf oc "  END %s\n" pname

let write_lef_file path (d : D.t) order seen =
  with_out path @@ fun oc ->
  Printf.fprintf oc "VERSION 5.8 ;\nBUSBITCHARS \"[]\" ;\nDIVIDERCHAR \"/\" ;\n";
  Printf.fprintf oc "SITE core\n  CLASS CORE ;\n  SIZE 1 BY %s ;\nEND core\n"
    (pg d.D.row_height);
  List.iter
    (fun name ->
      let src = Hashtbl.find seen name in
      let cls, w, h =
        match src with
        | Mlib lib -> ("CORE", lib.L.width, lib.L.height)
        | Mpad _ -> ("PAD", 1.0, 1.0)
        | Mblock (w, h) -> ("BLOCK", w, h)
        | Mcell c -> (
            ( (match D.kind d c with
              | D.Logic -> "CORE"
              | D.Input_pad | D.Output_pad -> "PAD"
              | D.Blockage -> "BLOCK"),
              d.D.w.{c},
              d.D.h.{c} ))
      in
      Printf.fprintf oc "MACRO %s\n  CLASS %s ;\n  ORIGIN 0 0 ;\n  SIZE %s BY %s ;\n" name
        cls (pg w) (pg h);
      (match src with
      | Mlib lib ->
          Array.iter
            (fun (lp : L.lib_pin) ->
              emit_macro_pin oc ~w ~h ~pname:lp.L.pname ~dir:(dir_of_lp lp) ~cap:lp.L.cap
                ~offx:lp.L.off_x ~offy:lp.L.off_y)
            lib.L.pins
      | Mpad `In ->
          emit_macro_pin oc ~w ~h ~pname:"p" ~dir:D.Out ~cap:0.0 ~offx:0.0 ~offy:0.0
      | Mpad `Out ->
          emit_macro_pin oc ~w ~h ~pname:"p" ~dir:D.In ~cap:3.0 ~offx:0.0 ~offy:0.0
      | Mblock _ -> ()
      | Mcell c ->
          D.iter_cell_pins d c (fun pid ->
              emit_macro_pin oc ~w ~h ~pname:d.D.pin_names.(pid) ~dir:(D.pin_dir d pid)
                ~cap:d.D.pin_cap.{pid} ~offx:d.D.pin_off_x.{pid} ~offy:d.D.pin_off_y.{pid}));
      Printf.fprintf oc "END %s\n" name)
    order;
  output_string oc "END LIBRARY\n"

let write_def_file path (d : D.t) comp_macro =
  with_out path @@ fun oc ->
  let u = units_out in
  let dbu v = pg (v *. u) in
  Printf.fprintf oc "VERSION 5.8 ;\nDIVIDERCHAR \"/\" ;\nBUSBITCHARS \"[]\" ;\n";
  Printf.fprintf oc "DESIGN %s ;\n" d.D.name;
  Printf.fprintf oc "UNITS DISTANCE MICRONS %d ;\n" (int_of_float u);
  Meta.emit oc d;
  let die = d.D.die in
  Printf.fprintf oc "DIEAREA ( %s %s ) ( %s %s ) ;\n" (dbu die.Geom.Rect.xl)
    (dbu die.Geom.Rect.yl) (dbu die.Geom.Rect.xh) (dbu die.Geom.Rect.yh);
  let height = die.Geom.Rect.yh -. die.Geom.Rect.yl in
  let width = die.Geom.Rect.xh -. die.Geom.Rect.xl in
  let nrows = max 1 (int_of_float (floor ((height /. d.D.row_height) +. 1e-9))) in
  let nsites = max 1 (int_of_float (floor (width +. 1e-9))) in
  for i = 0 to nrows - 1 do
    Printf.fprintf oc "ROW row_%d core %s %s N DO %d BY 1 STEP %d 0 ;\n" i
      (dbu die.Geom.Rect.xl)
      (dbu (die.Geom.Rect.yl +. (float_of_int i *. d.D.row_height)))
      nsites (int_of_float u)
  done;
  Printf.fprintf oc "COMPONENTS %d ;\n" d.D.n_cells;
  for c = 0 to d.D.n_cells - 1 do
    let llx = Fixup.ll ~half:(d.D.w.{c} /. 2.0) d.D.x.{c} in
    let lly = Fixup.ll ~half:(d.D.h.{c} /. 2.0) d.D.y.{c} in
    Printf.fprintf oc "- %s %s + %s ( %s %s ) N ;\n" d.D.cell_names.(c) comp_macro.(c)
      (if D.is_movable d c then "PLACED" else "FIXED")
      (dbu llx) (dbu lly)
  done;
  output_string oc "END COMPONENTS\n";
  Printf.fprintf oc "NETS %d ;\n" d.D.n_nets;
  for n = 0 to d.D.n_nets - 1 do
    Printf.fprintf oc "- %s" d.D.net_names.(n);
    D.iter_net_pins d n (fun pid ->
        Printf.fprintf oc " ( %s %s )" d.D.cell_names.(d.D.pin_owner.(pid))
          d.D.pin_names.(pid));
    output_string oc " + USE SIGNAL ;\n"
  done;
  output_string oc "END NETS\nEND DESIGN\n"

let write ~lef_path ~def_path (d : D.t) =
  let comp_macro, order, seen = plan_macros d in
  write_lef_file lef_path d order seen;
  write_def_file def_path d comp_macro
