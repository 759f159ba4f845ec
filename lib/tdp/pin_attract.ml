(** Pin-to-pin attraction — the paper's fine-grained timing objective
    (Sec. III-A/C/D).

    The maintained set P maps critical pin pairs (net arcs: driver pin ->
    sink pin) to weights updated by Eq. 9:

      w_(i,j) = w0                       on first extraction, and
      w_(i,j) += w1 * (slack / WNS)      for every further critical path
                                          the pair appears on,

    so pairs shared by many violating paths accumulate weight — the
    path-sharing effect net weighting cannot see. The loss (Eq. 10) is
      PP(x, y) = sum_(i,j) w_(i,j) * Q(i, j)
    with Q the configured distance (quadratic by default, Eq. 8). *)

open Netlist

type pair = { pin_i : int; pin_j : int; mutable weight : float; mutable touched : bool }

type t = {
  design : Design.t;
  loss : Config.loss_kind;
  pairs : (int * int, pair) Hashtbl.t;
  mutable updates : int; (* cumulative Eq. 9 weight writes (fresh + increments) *)
  mutable order : pair array option;
      (* [pairs]' values in iteration order; dropped on every insert,
         the only operation that changes that order *)
}

let create design ~loss = { design; loss; pairs = Hashtbl.create 4096; updates = 0; order = None }

let num_pairs t = Hashtbl.length t.pairs

let num_updates t = t.updates

(** Fold over the current pair set (order unspecified) — the inspection
    hook used by diagnostics and the Eq. 9 oracle tests. *)
let fold_pairs t ~init ~f =
  Hashtbl.fold (fun _ p acc -> f acc ~pin_i:p.pin_i ~pin_j:p.pin_j ~weight:p.weight) t.pairs init

let find_or_add t ~w0 i j =
  let key = (i, j) in
  match Hashtbl.find_opt t.pairs key with
  | Some p -> (p, false)
  | None ->
      let p = { pin_i = i; pin_j = j; weight = w0; touched = true } in
      Hashtbl.add t.pairs key p;
      t.order <- None;
      (p, true)

(** Apply Eq. 9 for one extracted critical path. Only net arcs contribute
    (cell-arc pin pairs live on the same cell: their distance is fixed).
    [wns] must be the current worst negative slack (< 0). *)
let update_from_path t (graph : Sta.Graph.t) ~w0 ~w1 ~wns (path : Sta.Paths.path) =
  (* Both comparisons are false for NaN slack/wns, and wns < 0 excludes
     the wns = 0 boundary (no violation => no update, and no 0/0). The
     explicit finiteness check additionally rejects inf/-inf operands
     (ratio would be NaN or Inf) so a poisoned path can never write a
     non-finite weight. *)
  if path.slack < 0.0 && wns < 0.0 && Float.is_finite (path.slack /. wns) then begin
    let ratio = path.slack /. wns in
    Array.iter
      (fun a ->
        if Sta.Graph.is_net_arc graph a then begin
          let i = graph.Sta.Graph.arc_from.(a) and j = graph.Sta.Graph.arc_to.(a) in
          let p, fresh = find_or_add t ~w0 i j in
          p.touched <- true;
          t.updates <- t.updates + 1;
          if not fresh then p.weight <- p.weight +. (w1 *. ratio)
        end)
      path.arcs
  end

(** Fold one extraction round into P: apply Eq. 9 along every path, then
    relax pairs that no longer sit on any extracted critical path by
    [stale_decay] (1.0 disables the relaxation and recovers pure Eq. 9 —
    see DESIGN.md). *)
let update_from_paths t graph ~w0 ~w1 ~wns ~stale_decay paths =
  Hashtbl.iter (fun _ p -> p.touched <- false) t.pairs;
  List.iter (fun p -> update_from_path t graph ~w0 ~w1 ~wns p) paths;
  (* When every endpoint meets timing, hold all weights: decaying them lets
     the fixed wires stretch again and the flow enters a limit cycle. *)
  if stale_decay < 1.0 && paths <> [] then
    Hashtbl.iter (fun _ p -> if not p.touched then p.weight <- p.weight *. stale_decay) t.pairs

(** Momentum-fold a single pair's weight toward [w_hat] (used by the
    pin-level ablation; fresh pairs start at [w_hat]). *)
let update_pair_momentum t ~pin_i ~pin_j ~w_hat ~momentum =
  let key = (pin_i, pin_j) in
  match Hashtbl.find_opt t.pairs key with
  | Some p -> p.weight <- (momentum *. p.weight) +. ((1.0 -. momentum) *. w_hat)
  | None ->
      Hashtbl.add t.pairs key { pin_i; pin_j; weight = w_hat; touched = true };
      t.order <- None

(** Loss value under the current placement (Eq. 10, before beta). *)
let loss_value t =
  let d = t.design in
  Hashtbl.fold
    (fun _ p acc ->
      let dx = Design.pin_x d p.pin_i -. Design.pin_x d p.pin_j in
      let dy = Design.pin_y d p.pin_i -. Design.pin_y d p.pin_j in
      let q =
        match t.loss with
        | Config.Quadratic -> (dx *. dx) +. (dy *. dy)
        | Config.Linear -> Float.hypot dx dy
        | Config.Hpwl_like -> Float.abs dx +. Float.abs dy
      in
      acc +. (p.weight *. q))
    t.pairs 0.0

(* Gradient contribution of one pair into [gx]/[gy]. *)
let add_pair_grad t ~gx ~gy (p : pair) =
  let d = t.design in
  let dx = Design.pin_x d p.pin_i -. Design.pin_x d p.pin_j in
  let dy = Design.pin_y d p.pin_i -. Design.pin_y d p.pin_j in
  let gx_i, gy_i =
    match t.loss with
    | Config.Quadratic -> (2.0 *. dx, 2.0 *. dy)
    | Config.Linear ->
        let dist = Float.max 1e-9 (Float.hypot dx dy) in
        (dx /. dist, dy /. dist)
    | Config.Hpwl_like ->
        let sgn v = if v > 0.0 then 1.0 else if v < 0.0 then -1.0 else 0.0 in
        (sgn dx, sgn dy)
  in
  let w = p.weight in
  let ci = d.pin_owner.(p.pin_i) and cj = d.pin_owner.(p.pin_j) in
  gx.(ci) <- gx.(ci) +. (w *. gx_i);
  gy.(ci) <- gy.(ci) +. (w *. gy_i);
  gx.(cj) <- gx.(cj) -. (w *. gx_i);
  gy.(cj) <- gy.(cj) -. (w *. gy_i)

(** Add d(PP)/d(cell position) into [gx]/[gy] (cell-indexed), one pair
    at a time in the cached pair order. Pin offsets are rigid, so pin
    gradients add directly to their cells. Weights mutate in place on the
    same records, so the cached pair order stays valid until the next
    insert. *)
let add_grad t ~gx ~gy =
  let pairs =
    match t.order with
    | Some a -> a
    | None ->
        let a = Array.of_seq (Hashtbl.to_seq_values t.pairs) in
        t.order <- Some a;
        a
  in
  Array.iter (fun p -> add_pair_grad t ~gx ~gy p) pairs
