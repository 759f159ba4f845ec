(** Reusable per-net tree workspace (see the interface). *)

type t = {
  mutable n_terms : int;
  mutable n_nodes : int;
  mutable tx : float array;
  mutable ty : float array;
  mutable tcap : float array;
  mutable node_of_term : int array;
  mutable lb : float array;
  mutable pending : int array;
  mutable xs : float array;
  mutable ys : float array;
  mutable parent : int array;
  mutable edge_len : float array;
  mutable terminal : int array;
  mutable child_off : int array;
  mutable child_ids : int array;
  mutable order : int array;
  mutable down_cap : float array;
  mutable delay : float array;
  sums : float array;
}

let create () =
  {
    n_terms = 0;
    n_nodes = 0;
    tx = [||];
    ty = [||];
    tcap = [||];
    node_of_term = [||];
    lb = [||];
    pending = [||];
    xs = [||];
    ys = [||];
    parent = [||];
    edge_len = [||];
    terminal = [||];
    child_off = [||];
    child_ids = [||];
    order = [||];
    down_cap = [||];
    delay = [||];
    sums = [| 0.0; 0.0 |];
  }

let term_capacity ws = Array.length ws.tx

let node_capacity ws = Array.length ws.parent

(* Grow to at least [need], doubling so a stream of growing nets costs
   O(log max) reallocations. Contents are not preserved: every user
   rewrites what it reads. *)
let grown cur need = max need (2 * cur)

let reserve_nodes ws nodes =
  if node_capacity ws < nodes then begin
    let m = grown (node_capacity ws) nodes in
    ws.xs <- Array.make m 0.0;
    ws.ys <- Array.make m 0.0;
    ws.parent <- Array.make m 0;
    ws.edge_len <- Array.make m 0.0;
    ws.terminal <- Array.make m 0;
    ws.child_off <- Array.make (m + 1) 0;
    ws.child_ids <- Array.make m 0;
    ws.order <- Array.make m 0;
    ws.down_cap <- Array.make m 0.0;
    ws.delay <- Array.make m 0.0
  end

let reserve ws n =
  if term_capacity ws < n then begin
    let m = grown (term_capacity ws) n in
    ws.tx <- Array.make m 0.0;
    ws.ty <- Array.make m 0.0;
    ws.tcap <- Array.make m 0.0;
    ws.node_of_term <- Array.make m 0;
    ws.lb <- Array.make m 0.0;
    ws.pending <- Array.make m 0
  end;
  reserve_nodes ws ((2 * n) - 1)
