(** Whole-tree-walk Elmore reference (see the interface). Deliberately
    naive: every edge's downstream capacitance is a fresh recursive walk
    of the entire subtree, every node's delay a fresh walk of its root
    path. Shares no traversal-order machinery with production. *)

type t = { total_cap : float; total_wirelen : float; sink_delay : float array }

let compute (tree : Rctree.Steiner.t) ~r ~c ~term_cap =
  let n = Rctree.Steiner.num_nodes tree in
  (* Load of node [v] itself: its terminal's cap, root terminal excluded. *)
  let own_cap v =
    let t = tree.Rctree.Steiner.terminal.(v) in
    if t > 0 then term_cap t else 0.0
  in
  (* Capacitance of the whole subtree rooted at [v], wire of the edge into
     [v] excluded (children found by scanning the parent array — O(n) per
     call, O(n^2) overall; the point is obviousness, not speed). *)
  let rec subtree_cap v =
    let acc = ref (own_cap v) in
    for w = 0 to n - 1 do
      if tree.Rctree.Steiner.parent.(w) = v then
        acc := !acc +. subtree_cap w +. (c *. tree.Rctree.Steiner.edge_len.(w))
    done;
    !acc
  in
  (* Elmore delay from the root to [v]: sum the per-edge terms along the
     root path, recomputing downstream cap from scratch at every edge. *)
  let rec delay_to v =
    if tree.Rctree.Steiner.parent.(v) < 0 then 0.0
    else begin
      let len = tree.Rctree.Steiner.edge_len.(v) in
      delay_to tree.Rctree.Steiner.parent.(v)
      +. (r *. len *. ((c *. len /. 2.0) +. subtree_cap v))
    end
  in
  let root =
    let rec find v = if tree.Rctree.Steiner.parent.(v) < 0 then v else find (v + 1) in
    find 0
  in
  let total_wirelen = ref 0.0 in
  for v = 0 to n - 1 do
    if tree.Rctree.Steiner.parent.(v) >= 0 then
      total_wirelen := !total_wirelen +. tree.Rctree.Steiner.edge_len.(v)
  done;
  {
    total_cap = subtree_cap root;
    total_wirelen = !total_wirelen;
    sink_delay = Array.init n delay_to;
  }

open Compare

let check_result ?(rtol = 1e-9) (prod : Rctree.Elmore.result) tree ~r ~c ~term_cap =
  let naive = compute tree ~r ~c ~term_cap in
  let* () =
    check_float ~rtol ~what:"total_cap" prod.Rctree.Elmore.total_cap naive.total_cap
  in
  let* () =
    check_float ~rtol ~what:"total_wirelen" prod.Rctree.Elmore.total_wirelen naive.total_wirelen
  in
  check_array ~rtol ~atol:1e-12 ~what:"sink_delay" prod.Rctree.Elmore.sink_delay naive.sink_delay

let check ?rtol tree ~r ~c ~term_cap =
  check_result ?rtol (Rctree.Elmore.compute tree ~r ~c ~term_cap) tree ~r ~c ~term_cap
