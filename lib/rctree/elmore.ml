(** Elmore delay over a routed net tree.

    Each tree edge of length L is a distributed RC segment with resistance
    r*L and capacitance c*L; the standard lumped approximation charges half
    the segment's own capacitance plus everything downstream:

      delay(edge) = r*L * (c*L/2 + C_downstream_of_child)

    and the delay to a sink is the sum over edges on the root-sink path.
    The driver's own resistance is handled by the caller (it multiplies the
    *total* net capacitance and is part of the cell/net arc delay).

    The kernel ({!compute_into}) runs over a {!Workspace.t}; {!compute}
    wraps it for a {!Steiner.t}. *)

type result = {
  total_cap : float; (* wire cap + all terminal loads (driver excluded) *)
  total_wirelen : float;
  sink_delay : float array; (* per tree NODE, delay from root *)
}

(* Parents-first order: every root (parent < 0) in index order, then a
   BFS that visits each node's children in descending index. Edge
   splits give a Steiner node a larger index than the child it adopts,
   so index order alone is not topological. *)
let bfs_order (ws : Workspace.t) =
  let n = ws.n_nodes in
  let parent = ws.parent and off = ws.child_off and ids = ws.child_ids and order = ws.order in
  Array.fill off 0 (n + 1) 0;
  for v = 0 to n - 1 do
    let p = parent.(v) in
    if p >= 0 then off.(p + 1) <- off.(p + 1) + 1
  done;
  for v = 0 to n - 1 do
    off.(v + 1) <- off.(v + 1) + off.(v)
  done;
  (* Fill descending so each child list reads high index first; [off.(p)]
     walks up to the next list's start and is restored below. *)
  for v = n - 1 downto 0 do
    let p = parent.(v) in
    if p >= 0 then begin
      ids.(off.(p)) <- v;
      off.(p) <- off.(p) + 1
    end
  done;
  for v = n - 1 downto 0 do
    off.(v + 1) <- off.(v)
  done;
  off.(0) <- 0;
  let tail = ref 0 in
  for v = 0 to n - 1 do
    if parent.(v) < 0 then begin
      order.(!tail) <- v;
      incr tail
    end
  done;
  let head = ref 0 in
  while !head < !tail do
    let v = order.(!head) in
    incr head;
    for j = off.(v) to off.(v + 1) - 1 do
      order.(!tail) <- ids.(j);
      incr tail
    done
  done;
  assert (!tail = n)

(** Elmore over the tree in [ws]: fills [ws.down_cap], [ws.delay] (per
    node) and [ws.sums]. Terminal loads come from [ws.tcap]; the root
    terminal's is ignored. Allocation-free. *)
let compute_into (ws : Workspace.t) ~r ~c =
  let n = ws.n_nodes in
  assert (n >= 1);
  bfs_order ws;
  let order = ws.order and parent = ws.parent and edge_len = ws.edge_len in
  let down_cap = ws.down_cap and delay = ws.delay in
  (* Bottom-up: downstream capacitance per node. *)
  for v = 0 to n - 1 do
    let t = ws.terminal.(v) in
    down_cap.(v) <- (if t > 0 then ws.tcap.(t) else 0.0)
  done;
  for i = n - 1 downto 0 do
    let v = order.(i) in
    let p = parent.(v) in
    if p >= 0 then down_cap.(p) <- down_cap.(p) +. down_cap.(v) +. (c *. edge_len.(v))
  done;
  (* Top-down: accumulated Elmore delay per node. *)
  for i = 0 to n - 1 do
    let v = order.(i) in
    let p = parent.(v) in
    if p >= 0 then begin
      let len = edge_len.(v) in
      let rseg = r *. len in
      delay.(v) <- delay.(p) +. (rseg *. ((c *. len /. 2.0) +. down_cap.(v)))
    end
    else delay.(v) <- 0.0
  done;
  let wl = ref 0.0 in
  for v = 0 to n - 1 do
    wl := !wl +. edge_len.(v)
  done;
  ws.sums.(0) <- down_cap.(order.(0));
  ws.sums.(1) <- !wl

(** [compute tree ~r ~c ~term_cap] where [term_cap i] is the load of the
    caller terminal [i] (the root terminal's value is ignored — a driver
    pin contributes no load to its own net). *)
let compute (tree : Steiner.t) ~r ~c ~term_cap =
  let n = Steiner.num_nodes tree in
  let ws = Workspace.create () in
  Workspace.reserve_nodes ws n;
  Array.blit tree.parent 0 ws.parent 0 n;
  Array.blit tree.edge_len 0 ws.edge_len 0 n;
  Array.blit tree.terminal 0 ws.terminal 0 n;
  ws.n_nodes <- n;
  let nterms = Array.fold_left (fun m t -> max m (t + 1)) 0 tree.terminal in
  ws.tcap <- Array.make nterms 0.0;
  Array.iter (fun t -> if t > 0 then ws.tcap.(t) <- term_cap t) tree.terminal;
  compute_into ws ~r ~c;
  {
    total_cap = ws.sums.(0);
    total_wirelen = ws.sums.(1);
    sink_delay = Array.sub ws.delay 0 n;
  }

(** Delay from root to caller terminal [i] (must be attached). *)
let terminal_delay (tree : Steiner.t) result i =
  let rec find v =
    if v >= Steiner.num_nodes tree then invalid_arg "Elmore.terminal_delay: no such terminal"
    else if tree.terminal.(v) = i then result.sink_delay.(v)
    else find (v + 1)
  in
  find 0
