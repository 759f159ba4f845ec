(** Elmore delay over a {!Steiner.t} topology.

    Each edge of length L is a distributed RC segment (r*L, c*L) lumped as
    delay(edge) = r*L * (c*L/2 + C_downstream); the root-to-sink delay is
    the sum along the path. Driver resistance is the caller's concern (it
    multiplies the *total* net capacitance in the cell/net arc delay). *)

type result = {
  total_cap : float; (* wire cap + all terminal loads (root excluded) *)
  total_wirelen : float;
  sink_delay : float array; (* per tree NODE, delay from root *)
}

(** The Elmore kernel over the tree in a workspace: fills [ws.delay]
    (per node), [ws.down_cap] and [ws.sums] (total cap, total
    wirelength). Terminal loads come from [ws.tcap]. Allocation-free. *)
val compute_into : Workspace.t -> r:float -> c:float -> unit

(** [compute tree ~r ~c ~term_cap] where [term_cap i] is the load of
    caller terminal [i] (the root terminal's value is ignored). *)
val compute : Steiner.t -> r:float -> c:float -> term_cap:(int -> float) -> result

(** Delay from root to caller terminal [i]; raises [Invalid_argument]
    when the terminal is not in the tree. O(nodes). *)
val terminal_delay : Steiner.t -> result -> int -> float
