(** Van Ginneken buffer insertion (estimation) on a Steiner topology.

    Classic bottom-up dynamic programming: each node carries a list of
    non-dominated candidates (downstream cap, required arrival time at the
    node, buffers used); wires degrade q and add cap, a buffer at a node
    resets the cap to the buffer's input cap at the cost of its delay, and
    Steiner merges combine children. The root candidate maximising
    q - drive_res * cap gives the best achievable required time.

    The paper (Sec. III-C) argues the quadratic loss avoids the long wire
    segments that force buffer insertion downstream — this module lets the
    benches *quantify* that: how much required-time a legal buffering
    could recover per critical net, and how many buffers it needs. *)

(* Buffer electrical model: input capacitance, intrinsic delay, drive
   resistance (delay += drive * downstream cap). *)
type buffer = { in_cap : float; intrinsic : float; drive : float }

(** The default library's BUF_X2, expressed for this module. *)
let default_buffer = { in_cap = 1.8; intrinsic = 16.0; drive = 5.0 }

type candidate = { cap : float; q : float; buffers : int }

(* Keep only non-dominated candidates: sort by cap ascending, keep strict
   q improvements (a candidate with more cap must offer strictly more q). *)
let prune cands =
  let sorted = List.sort (fun a b -> compare a.cap b.cap) cands in
  let rec go best_q acc = function
    | [] -> List.rev acc
    | c :: rest -> if c.q > best_q +. 1e-12 then go c.q (c :: acc) rest else go best_q acc rest
  in
  go Float.neg_infinity [] sorted

(* Traverse a wire of length [len] from child toward parent. *)
let through_wire ~r ~c ~len cand =
  let rw = r *. len and cw = c *. len in
  { cand with q = cand.q -. (rw *. ((cw /. 2.0) +. cand.cap)); cap = cand.cap +. cw }

(* Optionally place a buffer at the node: the upstream sees only the
   buffer's input cap; the signal pays the buffer's delay into the
   existing candidate. *)
let with_buffer buf cand =
  {
    cap = buf.in_cap;
    q = cand.q -. (buf.intrinsic +. (buf.drive *. cand.cap));
    buffers = cand.buffers + 1;
  }

(* Merge two children of a Steiner node: caps add, required times meet. *)
let merge a_cands b_cands =
  prune
    (List.concat_map
       (fun a ->
         List.map
           (fun b -> { cap = a.cap +. b.cap; q = Float.min a.q b.q; buffers = a.buffers + b.buffers })
           b_cands)
       a_cands)

type result = {
  best_q : float; (* required time achievable at the driver output *)
  buffers_used : int;
  unbuffered_q : float; (* same metric with no buffers allowed *)
}

(* Cap on buffers along one candidate's subtree. *)
let max_buffers = 16

(** [estimate tree ~r ~c ~drive_res ~term_req ~term_cap] where
    [term_req i]/[term_cap i] give each caller terminal's required time
    and load. Buffers ([default_buffer]) may be placed at internal tree
    nodes (Steiner points and intermediate terminals). *)
let estimate (tree : Steiner.t) ~r ~c ~drive_res ~term_req ~term_cap =
  let n = Steiner.num_nodes tree in
  let children = Array.make n [] in
  for v = 1 to n - 1 do
    children.(tree.parent.(v)) <- v :: children.(tree.parent.(v))
  done;
  (* Bottom-up candidates; allow_buffer=false computes the baseline. *)
  let rec solve ~allow v =
    let own =
      let t = tree.terminal.(v) in
      if t > 0 then [ { cap = term_cap t; q = term_req t; buffers = 0 } ]
      else [] (* pure Steiner node: no load of its own *)
    in
    let child_cands =
      List.map
        (fun ch ->
          let cands = solve ~allow ch in
          let after_wire = List.map (through_wire ~r ~c ~len:tree.edge_len.(ch)) cands in
          if allow then
            prune
              (after_wire
              @ List.filter_map
                  (fun cd ->
                    if cd.buffers < max_buffers then Some (with_buffer default_buffer cd)
                    else None)
                  after_wire)
          else prune after_wire)
        children.(v)
    in
    let all =
      match (own, child_cands) with
      | [], [] -> [ { cap = 0.0; q = Float.infinity; buffers = 0 } ]
      | [], c :: rest -> List.fold_left merge c rest
      | o, cs -> List.fold_left merge o cs
    in
    prune all
  in
  let root_value cands =
    List.fold_left (fun acc cd -> Float.max acc (cd.q -. (drive_res *. cd.cap))) Float.neg_infinity
      cands
  in
  let root_best cands =
    List.fold_left
      (fun (bq, bb) cd ->
        let v = cd.q -. (drive_res *. cd.cap) in
        if v > bq then (v, cd.buffers) else (bq, bb))
      (Float.neg_infinity, 0) cands
  in
  let buffered = solve ~allow:true 0 in
  let unbuffered = solve ~allow:false 0 in
  let best_q, buffers_used = root_best buffered in
  { best_q; buffers_used; unbuffered_q = root_value unbuffered }
