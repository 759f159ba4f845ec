(** Extension dispatch (see the interface). *)

module D = Netlist.Design

let ext path = String.lowercase_ascii (Filename.extension path)

let read ?lef path =
  match ext path with
  | ".aux" -> Bookshelf.read_aux path
  | ".def" ->
      (* No explicit LEF: look for the sibling our own writer produces. *)
      let lef_path =
        match lef with
        | Some _ -> lef
        | None ->
            let sib = Filename.remove_extension path ^ ".lef" in
            if Sys.file_exists sib then Some sib else None
      in
      let lef = Option.map Lefdef.read_lef lef_path in
      Lefdef.read_def ?lef path
  | ".lef" ->
      raise
        (Scan.Parse_error
           ( 0,
             path
             ^ ": a LEF is a library, not a design; load the DEF (--lef <file> --design-file \
                <file>.def)" ))
  | e ->
      raise
        (Scan.Parse_error
           (0, Printf.sprintf "%s: unknown design extension %S (supported: .aux, .def)" path e))

let load ?lef ?wire_rc ?clock path =
  let d =
    try read ?lef path
    with Scan.Parse_error (line, msg) -> Util.Errors.parse_failed ~file:path ~line msg
  in
  (match wire_rc with
  | Some rc ->
      d.D.r_per_unit <- rc.Rctree.Wire_rc.r_per_unit;
      d.D.c_per_unit <- rc.Rctree.Wire_rc.c_per_unit
  | None -> ());
  (match clock with Some c -> d.D.clock_period <- c | None -> ());
  d

let check_save path =
  match ext path with
  | ".aux" | ".def" | ".pl" -> ()
  | e ->
      Util.Errors.config_error ~what:"out"
        (Printf.sprintf "%s: unknown output extension %S (supported: .aux, .def, .pl)" path e)

let save path d =
  check_save path;
  match ext path with
  | ".aux" ->
      let dir = Filename.dirname path in
      let stem = Filename.remove_extension (Filename.basename path) in
      ignore (Bookshelf.write ~dir ~stem d)
  | ".def" ->
      let lef_path = Filename.remove_extension path ^ ".lef" in
      Lefdef.write ~lef_path ~def_path:path d
  | _ -> Bookshelf.write_pl path d
