(** Bookshelf placement format (UCLA/ISPD/ICCAD-2015 dialect).

    [read_aux] streams [.aux]/[.scl]/[.nodes]/[.nets]/[.pl] (plus the
    optional [.cells] sidecar and [# etdp] headers written by {!write})
    straight into {!Netlist.Builder} — single pass per file, no
    intermediate AST, token spans instead of per-line strings. Every
    malformed input raises [Scan.Parse_error (line, msg)].

    Grammar subset and semantic mapping are documented in DESIGN.md §13.
    Key conventions: [.pl]/[.nodes] use lower-left corners (converted to
    the database's centre convention; {!Fixup} makes the conversion
    bit-exact on round trip), net pin offsets are centre-relative as in
    ICCAD-2015, ["O"] entries drive, ["I"]/["B"] entries sink, and
    terminals are fixed. Without a [.cells] sidecar, cell kinds are
    inferred: a terminal with one output pin and nothing else is an input
    pad, one input pin an output pad, no pins a blockage, anything else a
    fixed macro treated as logic with a synthesized library cell. *)

val read_aux : string -> Netlist.Design.t

(** Write the full file set ([.aux .nodes .nets .pl .scl .cells]) into
    [dir] with basename [stem]; returns the [.aux] path. Parsing it back
    reproduces the design bit for bit (ids, CSR, coordinates, flags). *)
val write : dir:string -> stem:string -> Netlist.Design.t -> string

(** Write just the placement ([.pl]) — the [place --out <file>.pl] output. *)
val write_pl : string -> Netlist.Design.t -> unit

(** Overlay positions (and fixed flags) from a [.pl] file onto an
    existing design, matching by cell name. Unknown cells are errors. *)
val apply_pl : Netlist.Design.t -> string -> unit
