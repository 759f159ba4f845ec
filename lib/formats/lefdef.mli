(** Practical LEF/DEF subset (ICCAD-2015-grade, see DESIGN.md §13).

    LEF supplies macro geometry (SITE, MACRO/CLASS/SIZE, PIN
    DIRECTION/CAPACITANCE/PORT RECT); DEF supplies the design (DESIGN,
    UNITS, DIEAREA, ROW, COMPONENTS, PINS, NETS, BLOCKAGES). Both parse
    single-pass through {!Scan} straight into {!Netlist.Builder}; every
    malformed input raises [Scan.Parse_error (line, msg)]. Unknown
    top-level sections (VIAS, SPECIALNETS, ...) are skipped.

    Semantic mapping: a macro whose name resolves in the default library
    (with matching geometry and pin names) keeps that library cell —
    timing view included; any other macro gets a synthesized library cell
    with default timing. CLASS PAD macros with one pin become input/output
    pads (by pin direction), CLASS BLOCK (or pinless) macros blockages.
    DEF PINS records become pads (DIRECTION INPUT = chip input = driver).
    Components are placed by lower-left corner in DBU ([UNITS DISTANCE
    MICRONS 1024] in written files — a power of two, so DBU scaling is
    exact and round trips are bit-exact); timing context rides in
    [# etdp] comment headers ({!Meta}). *)

(** Parsed LEF library: macro geometry plus the site height. *)
type lef

val read_lef : string -> lef

(** Parse a DEF into a design. [lef] resolves macros the default library
    does not know; without it, every macro must be a library cell. *)
val read_def : ?lef:lef -> string -> Netlist.Design.t

(** Write the LEF/DEF pair. Every cell (pads and blockages included) is
    emitted as a COMPONENT of a macro defined in the LEF — shared library
    macros when the cell is library-faithful, per-cell macros otherwise —
    so parsing the pair back preserves cell ids exactly. *)
val write : lef_path:string -> def_path:string -> Netlist.Design.t -> unit
