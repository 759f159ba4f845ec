(** Rectilinear net topologies for RC delay estimation.

    Two constructions:
    - [star]: driver connects to every sink directly (length = Manhattan
      distance). Cheapest; makes each sink's wire delay depend only on its
      own driver-sink distance.
    - [steiner]: Prim-based rectilinear Steiner heuristic. Terminals are
      attached one by one to the closest point of the partially built tree,
      where "points of the tree" include projections onto the bounding box
      of existing edges; attachment to an edge interior splits it with a
      Steiner node. Always no longer than the rectilinear MST.

    Both are built into a {!Workspace.t} ({!build_into}); [star] and
    [steiner] wrap that kernel for callers that want a fresh {!t}.

    Node 0 is the root (net driver). [terminal] maps tree nodes back to the
    caller's terminal indices (-1 for Steiner nodes). *)

type t = {
  xs : float array;
  ys : float array;
  parent : int array; (* parent node index; -1 for the root *)
  edge_len : float array; (* Manhattan length of the edge to parent *)
  terminal : int array; (* caller terminal index, -1 for Steiner nodes *)
}

type topology = Star | Steiner_tree

let num_nodes t = Array.length t.parent

let total_length t = Array.fold_left ( +. ) 0.0 t.edge_len

let[@inline] manhattan ax ay bx by = Float.abs (ax -. bx) +. Float.abs (ay -. by)

(* [Float.min]/[Float.max] by compare-and-select, with the same result
   bits: equal operands can only differ as +0/-0, where min prefers -0
   (-(-x - y)) and max prefers +0 (x + y); an unordered pair returns its
   NaN. They skip the [sign_bit] C calls the library versions make on
   every call. *)
let[@inline] fmin x y =
  if x < y then x
  else if y < x then y
  else if x = y then if x = 0.0 then -.(-.x -. y) else y
  else if x <> x then x
  else y

let[@inline] fmax x y =
  if x > y then x
  else if y > x then y
  else if x = y then if x = 0.0 then x +. y else x
  else if x <> x then x
  else y

(* Distance from p to the closest point of the axis-aligned bounding box
   of segment (a,b) — the standard "merging point" of rectilinear
   routing; [clamp] gives the point's coordinate on one axis. *)
let[@inline] clamp a b p = fmax (fmin a b) (fmin (fmax a b) p)

let[@inline] bbox_dist ax ay bx by px py =
  manhattan px py (clamp ax bx px) (clamp ay by py)

(* Node [v] := terminal [term], hanging off [par] by an edge of [len]. *)
let[@inline] load_terminal (ws : Workspace.t) v term par len =
  ws.xs.(v) <- ws.tx.(term);
  ws.ys.(v) <- ws.ty.(term);
  ws.parent.(v) <- par;
  ws.edge_len.(v) <- len;
  ws.terminal.(v) <- term;
  ws.node_of_term.(term) <- v

let star_into (ws : Workspace.t) =
  let n = ws.n_terms in
  let x0 = ws.tx.(0) and y0 = ws.ty.(0) in
  load_terminal ws 0 0 (-1) 0.0;
  for i = 1 to n - 1 do
    load_terminal ws i i 0 (manhattan x0 y0 ws.tx.(i) ws.ty.(i))
  done;
  ws.n_nodes <- n

(* The Prim search with exact pruning. Each round scans the unattached
   terminals in ascending order and, per terminal, every node and every
   edge's bounding box, keeping the first strict improvement (an edge
   must beat the running best by 1e-12). [lb.(t)] is a lower bound on
   t's distance to every point the scan would test:
   - it starts as the distance to the root, the only tree point;
   - a scan of t replaces it with the exact minimum it found;
   - an attach adds the bounding box of the new edge (lb drops to the
     distance to it, which also bounds the new terminal node inside
     it); a split adds a Steiner node and two edges that all lie inside
     the split edge's old box, which the bound already covers (the
     clamp is monotone, and so is rounded subtraction and addition, so
     this holds for the computed distances too).
   When lb.(t) >= best, neither [d < best] nor [d < best - 1e-12] can
   fire for t, so skipping it selects exactly what the full scan does.
   Worst case is still O(n^3) per net. *)
let steiner_into (ws : Workspace.t) =
  let n = ws.n_terms in
  let tx = ws.tx and ty = ws.ty and lb = ws.lb and pending = ws.pending in
  let xs = ws.xs and ys = ws.ys and parent = ws.parent and edge_len = ws.edge_len in
  load_terminal ws 0 0 (-1) 0.0;
  let nodes = ref 1 in
  for t = 1 to n - 1 do
    pending.(t - 1) <- t;
    lb.(t) <- manhattan tx.(t) ty.(t) xs.(0) ys.(0)
  done;
  let npend = ref (n - 1) in
  for _ = 1 to n - 1 do
    let best_dist = ref Float.infinity in
    let best_slot = ref (-1) in
    (* attachment node, or child side of the split edge *)
    let best_node = ref (-1) in
    let best_sx = ref 0.0 and best_sy = ref 0.0 in
    let best_is_edge = ref false in
    for slot = 0 to !npend - 1 do
      let t = pending.(slot) in
      if lb.(t) < !best_dist then begin
        let px = tx.(t) and py = ty.(t) in
        let tmin = ref Float.infinity in
        for v = 0 to !nodes - 1 do
          let vx = xs.(v) and vy = ys.(v) in
          let d = manhattan px py vx vy in
          if d < !tmin then tmin := d;
          if d < !best_dist then begin
            best_dist := d;
            best_slot := slot;
            best_node := v;
            best_is_edge := false
          end;
          let par = parent.(v) in
          if par >= 0 then begin
            let ux = xs.(par) and uy = ys.(par) in
            let cx = clamp ux vx px and cy = clamp uy vy py in
            let d = manhattan px py cx cy in
            if d < !tmin then tmin := d;
            if d < !best_dist -. 1e-12 then begin
              best_dist := d;
              best_slot := slot;
              best_node := v;
              best_is_edge := true;
              best_sx := cx;
              best_sy := cy
            end
          end
        done;
        lb.(t) <- !tmin
      end
    done;
    let attach_to =
      if not !best_is_edge then !best_node
      else begin
        (* Split edge (parent(v), v) at the Steiner point: the new node
           takes over v's parent; v re-parents onto the Steiner node. *)
        let v = !best_node in
        let par = parent.(v) in
        let s = !nodes in
        let sx = !best_sx and sy = !best_sy in
        xs.(s) <- sx;
        ys.(s) <- sy;
        parent.(s) <- par;
        edge_len.(s) <- manhattan sx sy xs.(par) ys.(par);
        ws.terminal.(s) <- -1;
        parent.(v) <- s;
        edge_len.(v) <- manhattan xs.(v) ys.(v) sx sy;
        nodes := s + 1;
        s
      end
    in
    (* Index -1 (no finite distance anywhere: NaN coordinates) raises. *)
    let t = pending.(!best_slot) in
    let ax = xs.(attach_to) and ay = ys.(attach_to) in
    load_terminal ws !nodes t attach_to (manhattan tx.(t) ty.(t) ax ay);
    incr nodes;
    Array.blit pending (!best_slot + 1) pending !best_slot (!npend - !best_slot - 1);
    decr npend;
    for slot = 0 to !npend - 1 do
      let u = pending.(slot) in
      let d = bbox_dist ax ay tx.(t) ty.(t) tx.(u) ty.(u) in
      if d < lb.(u) then lb.(u) <- d
    done
  done;
  ws.n_nodes <- !nodes

let build_into (ws : Workspace.t) topology =
  assert (ws.n_terms >= 1);
  match topology with
  | Star -> star_into ws
  | Steiner_tree -> if ws.n_terms <= 2 then star_into ws else steiner_into ws

(* Allocating wrapper: load the terminals, build, copy the tree out. *)
let build topology ~xs ~ys =
  let n = Array.length xs in
  assert (n = Array.length ys && n >= 1);
  let ws = Workspace.create () in
  Workspace.reserve ws n;
  Array.blit xs 0 ws.tx 0 n;
  Array.blit ys 0 ws.ty 0 n;
  ws.n_terms <- n;
  build_into ws topology;
  let m = ws.n_nodes in
  {
    xs = Array.sub ws.xs 0 m;
    ys = Array.sub ws.ys 0 m;
    parent = Array.sub ws.parent 0 m;
    edge_len = Array.sub ws.edge_len 0 m;
    terminal = Array.sub ws.terminal 0 m;
  }

let star ~xs ~ys = build Star ~xs ~ys

let steiner ~xs ~ys = build Steiner_tree ~xs ~ys

(** Rectilinear MST length by plain Prim (no Steiner points); used as an
    upper bound in tests. *)
let rmst_length ~xs ~ys =
  let n = Array.length xs in
  if n <= 1 then 0.0
  else begin
    let in_tree = Array.make n false in
    let dist = Array.make n Float.infinity in
    in_tree.(0) <- true;
    for j = 1 to n - 1 do
      dist.(j) <- manhattan xs.(0) ys.(0) xs.(j) ys.(j)
    done;
    let total = ref 0.0 in
    for _ = 1 to n - 1 do
      let best = ref (-1) and bd = ref Float.infinity in
      for j = 0 to n - 1 do
        if (not in_tree.(j)) && dist.(j) < !bd then begin
          bd := dist.(j);
          best := j
        end
      done;
      let b = !best in
      in_tree.(b) <- true;
      total := !total +. !bd;
      for j = 0 to n - 1 do
        if not in_tree.(j) then
          dist.(j) <- Float.min dist.(j) (manhattan xs.(b) ys.(b) xs.(j) ys.(j))
      done
    done;
    !total
  end
