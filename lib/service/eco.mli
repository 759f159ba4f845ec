(** ECO (engineering change order) deltas — the small edits a client
    applies to a loaded design between placements. The vocabulary is the
    incremental slice of the OpenROAD-style job set: reposition cells,
    retarget the clock, retune wire parasitics, reweight nets.

    A delta is data, not closures, so it travels as JSON over the
    protocol and the warm-cache invalidation rules can be decided by
    inspection (see {!applied} and [State.note_eco]). *)

type op =
  | Move of { cell : int; x : float; y : float } (* absolute centre *)
  | Move_by of { cell : int; dx : float; dy : float }
  | Set_clock of float (* ps *)
  | Set_wire_rc of { r : float; c : float } (* kOhm, fF per site *)
  | Reweight of { net : int; weight : float }

type t = op list

(** What a delta actually touched — the invalidation summary the warm
    cache dispatches on: moves re-time incrementally, wire-RC changes
    invalidate delays, clock changes refresh boundary conditions. *)
type applied = {
  moved : int list; (* distinct cell ids repositioned *)
  clock : float option; (* new period, when retargeted *)
  rc_changed : bool;
  reweighted : int; (* nets reweighted *)
}

(** Parse a delta from a JSON list of op objects:
    {v
      [{"op":"move","cell":12,"x":100.5,"y":80.0},
       {"op":"move_by","cell":13,"dx":-4.0,"dy":0.0},
       {"op":"set_clock","period":900.0},
       {"op":"set_wire_rc","r":0.06,"c":0.5},
       {"op":"reweight","net":3,"weight":2.0}]
    v} *)
val of_json : Obs.Json.t -> (t, string) result

val to_json : t -> Obs.Json.t

(** Apply to the design in place. Raises
    [Util.Errors.Error (Invalid_design _)] on an out-of-range cell/net
    id or a non-finite value, [Config_error] on a non-positive clock or
    negative RC — before mutating anything, so a rejected delta leaves
    the design untouched. Movable-cell moves are clamped to the die;
    fixed cells cannot be moved. *)
val apply : Netlist.Design.t -> t -> applied

(** A reproducible small random delta: [frac] of the movable cells
    (at least 1) each displaced by up to 2% of the die span. The bench's
    "≤1% ECO" workload. Deterministic in [seed]. *)
val random : ?seed:int -> frac:float -> Netlist.Design.t -> t
