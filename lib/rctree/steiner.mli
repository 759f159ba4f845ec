(** Rectilinear net topologies for RC delay estimation.

    Node 0 is the root (net driver); [terminal] maps tree nodes back to
    caller terminal indices (-1 for Steiner points). *)

type t = {
  xs : float array;
  ys : float array;
  parent : int array; (* parent node index; -1 for the root *)
  edge_len : float array; (* Manhattan length of the edge to parent *)
  terminal : int array; (* caller terminal index, -1 for Steiner nodes *)
}

type topology =
  | Star (* every terminal a direct child of the root *)
  | Steiner_tree (* the Prim-based Steiner heuristic below *)

val num_nodes : t -> int

val total_length : t -> float

(** Build the tree of the [ws.n_terms] terminals loaded in [ws] into its
    node arrays (see {!Workspace}); fills [ws.node_of_term] too. The one
    tree kernel: {!star} and {!steiner} wrap it. Allocation-free once
    [ws] is large enough. *)
val build_into : Workspace.t -> topology -> unit

(** Star topology: every terminal is a direct child of the root.
    Terminal 0 is the root. *)
val star : xs:float array -> ys:float array -> t

(** Prim-based rectilinear Steiner heuristic: terminals attach to the
    closest point of the partial tree, splitting edges with Steiner nodes
    where profitable; ties go to the lowest terminal, then the lowest
    node, a node before an edge. Never longer than the rectilinear MST.
    O(n^3) worst case: n-1 rounds, each scanning up to n terminals
    against up to 2n-1 nodes. A per-terminal lower bound on the distance
    to the tree skips terminals that cannot beat the round's best so
    far; the skip is exact (the selection is the one the full scan
    makes), so it only saves time. *)
val steiner : xs:float array -> ys:float array -> t

(** Rectilinear MST length (plain Prim, no Steiner points) — an upper
    bound used by tests. *)
val rmst_length : xs:float array -> ys:float array -> float
