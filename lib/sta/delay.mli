(** Delay calculation: refreshes arc delays and pin slews from the current
    placement.

    Net arcs: delay = R_driver * C_net_total + Elmore(driver -> sink).
    Cell arcs: delay = intrinsic + slew_sens * slew(input).
    Output slews depend only on load, so a net pass followed by a cell-arc
    pass is exact (no fixed point needed). *)

type topology = Rctree.Steiner.topology = Star | Steiner_tree

(** Driver (resistance, slew_base, slew_load); pads use nominal pad
    parameters. Raises [Invalid_argument] for non-driver pins. *)
val driver_params : Netlist.Design.t -> int -> float * float * float

type t = {
  graph : Graph.t;
  topology : topology;
  slew : float array; (* per pin *)
  net_cap : float array; (* per net: total load seen by the driver *)
  net_wirelen : float array; (* per net: routed (tree) wirelength *)
  par : Util.Parallel.t; (* the net pass fans out on it *)
  workspaces : Rctree.Workspace.t array; (* one per domain; [update_moved] uses the first *)
  dirty_stamp : int array; (* per net: last [update_moved] epoch that re-timed it *)
  mutable epoch : int;
  fault : (float -> float) option; (* robustness tests: applied to every Elmore node delay *)
}

val create : ?fault:(float -> float) -> par:Util.Parallel.t -> Graph.t -> topology:topology -> t

(** Full refresh of every net and cell arc. Allocation-free per net once
    the per-chunk tree workspaces have grown to the largest net. *)
val update : t -> unit

(** Incremental refresh after moving only [cells]: recompute the nets
    touching those cells and the cell arcs their sink slews feed.
    Exactly equivalent to {!update} for that placement change. *)
val update_moved : t -> cells:int list -> unit
