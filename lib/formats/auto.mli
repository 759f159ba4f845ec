(** Extension-dispatched design I/O — the one loader and writer that
    flow drivers, tools and the daemon use.

    [.aux] loads through {!Bookshelf}, [.def] through {!Lefdef} (with
    the companion LEF — explicit [lef], else a sibling [.lef] next to
    the DEF when one exists). [wire_rc] and [clock] override whatever
    the file (or its [# etdp] headers) provided — the [set_wire_rc] path
    feeding [lib/rctree].

    A malformed file, an unreadable path, a bare [.lef] or any other
    extension raises [Util.Errors.Error (Parse_failed {file; line; _})]
    (kind [parse_error], exit code 6); the unknown-extension message
    names the supported extensions. *)

val load :
  ?lef:string ->
  ?wire_rc:Rctree.Wire_rc.t ->
  ?clock:float ->
  string ->
  Netlist.Design.t

(** Save by extension: [.aux] writes the Bookshelf bundle next to the
    path, [.def] writes a DEF plus a sibling [.lef], [.pl] writes
    placement only. Any other extension raises {!check_save}'s error. *)
val save : string -> Netlist.Design.t -> unit

(** Raises [Util.Errors.Error (Config_error _)] (what = ["out"]) unless
    {!save} supports the path's extension — lets a driver reject an
    output path before running a flow. *)
val check_save : string -> unit
