(** Reusable per-net tree workspace: the terminals, the routed tree and
    its Elmore quantities of one net, as flat arrays grown on demand.

    A caller loads the [n] terminals ({!reserve} first, then [tx]/[ty]
    for every terminal, [tcap] for terminals [1 .. n-1], and [n_terms]),
    builds the tree with {!Steiner.build_into} and evaluates it with
    {!Elmore.compute_into}. Once the workspace has grown to the largest
    net it sees, neither step allocates. Node 0 is the root (terminal
    0, the driver); a tree has at most [2n - 1] nodes. Each domain needs
    its own workspace. *)

type t = {
  mutable n_terms : int;
  mutable n_nodes : int;
  (* -- per terminal, capacity >= n_terms -- *)
  mutable tx : float array; (* terminal coordinates *)
  mutable ty : float array;
  mutable tcap : float array; (* terminal loads; index 0 (the driver) is ignored *)
  mutable node_of_term : int array; (* tree node of each terminal *)
  mutable lb : float array; (* Steiner search: lower bound on distance to the tree *)
  mutable pending : int array; (* Steiner search: unattached terminals, ascending *)
  (* -- per tree node, capacity >= 2 n_terms - 1 -- *)
  mutable xs : float array;
  mutable ys : float array;
  mutable parent : int array; (* -1 for the root *)
  mutable edge_len : float array; (* Manhattan length of the edge to the parent *)
  mutable terminal : int array; (* terminal index, -1 for Steiner nodes *)
  mutable child_off : int array; (* CSR node -> children (descending index), capacity + 1 *)
  mutable child_ids : int array;
  mutable order : int array; (* BFS order, parents before children *)
  mutable down_cap : float array; (* downstream capacitance *)
  mutable delay : float array; (* Elmore delay from the root *)
  sums : float array;
      (* [| total_cap; total_wirelen |] of the last Elmore pass: total_cap is
         the load the driver sees (wire cap plus every terminal load).
         Read the slots directly; a float-returning accessor would box. *)
}

val create : unit -> t

(** Ensure room for [n] terminals and [2n - 1] tree nodes. Growing
    discards the previous contents. *)
val reserve : t -> int -> unit

(** Ensure room for [nodes] tree nodes only (loading a prebuilt tree). *)
val reserve_nodes : t -> int -> unit
