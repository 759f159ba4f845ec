(** Light detailed placement: greedy same-width cell swaps that reduce the
    HPWL of their incident nets. Legality is preserved by construction.

    Each call scores its candidates against one workspace (a
    cell->incident-net CSR and a per-net HPWL cache), so scoring allocates
    nothing. Results match [Oracle.Ref_place.Detailed] bit for bit when pin
    coordinates are finite, as [Netlist.Design.validate] requires. *)

(** One sweep over nearby cell pairs; returns accepted swaps. *)
val pass : Netlist.Design.t -> window:int -> int

(** Sliding-window exact reordering of [k] consecutive same-row cells
    (re-packed into the same span, so legality is preserved). Returns the
    number of improving windows. *)
val reorder_rows : ?k:int -> Netlist.Design.t -> int

(** Up to [passes] pair-swap sweeps plus one row-reordering sweep (early
    stop on no progress); returns total accepted improvements. *)
val run : ?passes:int -> ?window:int -> Netlist.Design.t -> int
