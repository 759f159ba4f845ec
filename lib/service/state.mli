(** The daemon's session registry and warm-state cache: one {!entry} per
    loaded design, holding everything worth keeping hot between requests
    — the design DB itself, a lazily built STA timer (timing graph + RC
    trees + propagation scratch), and the last placement result.

    Invalidation rules (enforced by {!note_eco}, documented in
    DESIGN.md §14): cell moves re-time the warm timer incrementally
    ([Sta.Timer.update_moved]); a wire-RC change only invalidates (arc
    delays are recomputed from [r_per_unit]/[c_per_unit] at the next
    update — the graph survives); a clock retarget goes through
    [Sta.Timer.set_clock] (boundary-condition refresh — the graph
    survives); net reweighting does not touch timing at all. Nothing
    short of [unload] discards the timing graph. *)

type entry = {
  design : Netlist.Design.t;
  mutable timer : Sta.Timer.t option; (* built on first timing demand *)
  mutable placed : bool; (* a placement result exists (warm-start is valid) *)
  mutable last_result : Tdp.Flow.result option;
  mutable generation : int; (* bumped by every mutating op (place/replace/eco) *)
}

type t

val create : unit -> t

(** Register a design under [name], replacing any previous entry (the
    replaced entry's warm state is dropped whole). *)
val add : t -> name:string -> Netlist.Design.t -> entry

(** [Error] names the unknown design and lists what is loaded. *)
val find : t -> string -> (entry, string) result

val unload : t -> string -> bool

(** Loaded names, load order. *)
val names : t -> string list

(** The entry's warm timer, built on [par] (and fully timed) on first
    demand. *)
val timer : ?obs:Obs.Ctx.t -> par:Util.Parallel.t -> entry -> Sta.Timer.t

(** Apply the warm-cache invalidation rules for an applied ECO delta:
    moves -> incremental re-time, RC -> invalidate, clock ->
    [Sta.Timer.set_clock] refresh. A cold entry (no timer yet) stays
    cold — building one just to invalidate it would be wasted work. *)
val note_eco : entry -> Eco.applied -> unit
