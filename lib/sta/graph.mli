(** The timing graph: a DAG over design pins.

    Arcs are net arcs (driver -> sink) and cell arcs (input -> output of a
    combinational cell). Flip-flops cut the graph: Q pins launch at
    clk-to-Q, D pins check setup against the clock period; input pads
    start at 0, output pads require the period. Structure is static over a
    placement run — only [arc_delay] changes. *)

type t = {
  design : Netlist.Design.t;
  num_arcs : int;
  num_net_arcs : int; (* net arcs come first; see {!is_net_arc} *)
  arc_from : int array;
  arc_to : int array;
  arc_delay : float array; (* refreshed by Delay each timing round *)
  in_start : int array; (* CSR: in-arcs of pin p are
                           in_arc.(in_start.(p) .. in_start.(p+1)-1) *)
  in_arc : int array;
  out_start : int array;
  out_arc : int array;
  topo : int array; (* pin ids, sources first *)
  is_startpoint : bool array;
  is_endpoint : bool array;
  endpoints : int array;
  start_arrival : float array; (* valid where is_startpoint *)
  end_required : float array; (* valid where is_endpoint *)
}

val num_pins : t -> int

(** The arc layout: net arcs (driver -> sink) first, net by net in sink
    order, then the cell arcs. [net_arc g ~net ~sink] is the arc to
    {!Netlist.Design.net_sink}[ d net sink]. *)
val is_net_arc : t -> int -> bool

val net_arc : t -> net:int -> sink:int -> int

exception Combinational_loop

(** Build from a design; raises {!Combinational_loop} on cyclic logic. *)
val build : Netlist.Design.t -> t

(** Recompute [start_arrival]/[end_required] from the design's *current*
    clock period and IO delays. The graph bakes these constraints in at
    [build] time; after a constraint ECO (clock retarget) this refresh —
    followed by a re-time — brings timing up to date without rebuilding
    adjacency or the topological order. *)
val refresh_boundary : t -> unit
