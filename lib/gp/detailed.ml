(** Light detailed placement: greedy same-size cell swapping.

    After legalisation, sweeps over cell pairs that sit close together
    and swaps them when the HPWL of their incident nets improves. This is
    deliberately simple — the paper evaluates *global* placement; detailed
    placement exists so the full classical three-stage pipeline is
    representable end to end.

    Every candidate move is scored against a per-call workspace (see
    DESIGN.md §15): a cell→incident-net CSR, merge buffers and a per-net
    HPWL cache, so scoring a move allocates nothing and reads unchanged
    nets from the cache instead of rescanning their pins. The candidates,
    their order, the float expressions and the accept/reject decisions are
    those of the list-based reference [Oracle.Ref_place.Detailed]. *)

open Netlist

type ws = {
  net_off : int array; (* CSR cell -> incident nets, length n_cells+1 *)
  net_ids : int array; (* each row ascending and unique *)
  max_row : int; (* longest row *)
  hpwl : float array; (* per-net HPWL cache = Design.net_hpwl d n between moves *)
  movables : int array; (* movable ids, ascending *)
  mutable nets : int array; (* the candidate's net set, ascending *)
  mutable spare : int array; (* merge target, swapped with [nets] *)
  mutable fresh : float array; (* the candidate's new per-net HPWLs *)
  m : float array; (* Design.net_hpwl_into scratch *)
}

let create (d : Design.t) =
  let nc = Design.num_cells d in
  let net_off = Array.make (nc + 1) 0 in
  let net_ids = Array.make (Array.length d.cell_pin_ids) 0 in
  let pos = ref 0 and max_row = ref 0 in
  for c = 0 to nc - 1 do
    let lo = !pos in
    for k = d.cell_pin_off.(c) to d.cell_pin_off.(c + 1) - 1 do
      let net = d.pin_net.(d.cell_pin_ids.(k)) in
      if net >= 0 then begin
        (* insert into the sorted row [lo, !pos) unless already there *)
        let j = ref (!pos - 1) in
        while !j >= lo && net_ids.(!j) > net do
          decr j
        done;
        if !j < lo || net_ids.(!j) < net then begin
          Array.blit net_ids (!j + 1) net_ids (!j + 2) (!pos - !j - 1);
          net_ids.(!j + 1) <- net;
          incr pos
        end
      end
    done;
    net_off.(c + 1) <- !pos;
    max_row := max !max_row (!pos - lo)
  done;
  let m = Array.make 5 0.0 in
  let hpwl =
    Array.init (Design.num_nets d) (fun n ->
        Design.net_hpwl_into d n m;
        m.(4))
  in
  let movables = Array.of_list (Design.movable_ids d) in
  let cap = 2 * !max_row in
  {
    net_off;
    net_ids;
    max_row = !max_row;
    hpwl;
    movables;
    nets = Array.make cap 0;
    spare = Array.make cap 0;
    fresh = Array.make cap 0.0;
    m;
  }

(* Room for the net set of [cells] cells. *)
let reserve ws cells =
  let cap = cells * ws.max_row in
  if Array.length ws.nets < cap then begin
    ws.nets <- Array.make cap 0;
    ws.spare <- Array.make cap 0;
    ws.fresh <- Array.make cap 0.0
  end

(* Sorted union of [ws.nets.(0 .. len-1)] and cell [c]'s row, left in
   [ws.nets]; returns its length. *)
let merge_row ws len c =
  let src = ws.nets and dst = ws.spare and ids = ws.net_ids in
  let i = ref 0 and j = ref ws.net_off.(c) and n = ref 0 in
  let je = ws.net_off.(c + 1) in
  while !i < len || !j < je do
    let v =
      if !j >= je then src.(!i)
      else if !i >= len then ids.(!j)
      else
        let x = src.(!i) and y = ids.(!j) in
        if x <= y then x else y
    in
    if !i < len && src.(!i) = v then incr i;
    if !j < je && ids.(!j) = v then incr j;
    dst.(!n) <- v;
    incr n
  done;
  ws.nets <- dst;
  ws.spare <- src;
  !n

let swap_positions (d : Design.t) a b =
  let tx = d.x.{a} and ty = d.y.{a} in
  d.x.{a} <- d.x.{b};
  d.y.{a} <- d.y.{b};
  d.x.{b} <- tx;
  d.y.{b} <- ty

(* Sweep order: by y, then by x. [Float.compare] has the sign of the
   polymorphic tuple [compare], so the heap sort permutes identically. *)
let by_y_then_x (d : Design.t) a b =
  let c = Float.compare d.y.{a} d.y.{b} in
  if c <> 0 then c else Float.compare d.x.{a} d.x.{b}

let pass_ws ws (d : Design.t) ~window =
  let movables = Array.copy ws.movables in
  Array.sort (by_y_then_x d) movables;
  let accepted = ref 0 in
  let n = Array.length movables in
  for i = 0 to n - 1 do
    let a = movables.(i) in
    for j = i + 1 to min (n - 1) (i + window) do
      let b = movables.(j) in
      if d.w.{a} = d.w.{b} && (d.x.{a} <> d.x.{b} || d.y.{a} <> d.y.{b}) then begin
        let len = merge_row ws (merge_row ws 0 a) b in
        let nets = ws.nets and fresh = ws.fresh and m = ws.m in
        let before = ref 0.0 in
        for q = 0 to len - 1 do
          before := !before +. ws.hpwl.(nets.(q))
        done;
        let before = !before in
        swap_positions d a b;
        (* Stop once the partial sum reaches the acceptance bound. With
           finite pin coordinates every addend is >= 0, so the full sum
           could not fall below it. A non-finite coordinate can give a
           -inf addend, and then stopping early may differ from the
           reference; the .mli requires finite coordinates. *)
        let bound = before -. 1e-9 in
        let after = ref 0.0 and q = ref 0 in
        while !q < len && not (!after >= bound) do
          Design.net_hpwl_into d nets.(!q) m;
          fresh.(!q) <- m.(4);
          after := !after +. m.(4);
          incr q
        done;
        let after = !after in
        if after < before -. 1e-9 then begin
          incr accepted;
          for q = 0 to len - 1 do
            ws.hpwl.(nets.(q)) <- fresh.(q)
          done
        end
        else swap_positions d a b
      end
    done
  done;
  !accepted

(** One pass; returns the number of accepted swaps. Only same-width cells
    are exchanged so legality is preserved trivially. *)
let pass (d : Design.t) ~window = pass_ws (create d) d ~window

(* All permutations of a small list. *)
let rec permutations = function
  | [] -> [ [] ]
  | l ->
      List.concat_map
        (fun x ->
          let rest = List.filter (fun y -> y != x) l in
          List.map (fun p -> x :: p) (permutations rest))
        l

let by_x (d : Design.t) a b = Float.compare d.x.{a} d.x.{b}

(* Pack window [sorted.(i ..)] in [perm]'s order from [edge.(0)] rightwards. *)
let pack (d : Design.t) sorted i perm edge =
  let cur = ref edge.(0) in
  for q = 0 to Array.length perm - 1 do
    let id = sorted.(i + perm.(q)) in
    d.x.{id} <- !cur +. (d.w.{id} /. 2.0);
    cur := !cur +. d.w.{id}
  done

let reorder_ws ws ?(k = 3) (d : Design.t) =
  if k < 0 then invalid_arg "Detailed.reorder_rows: k < 0";
  reserve ws k;
  (* Window positions in the order [permutations] enumerates them. *)
  let perms = Array.of_list (List.map Array.of_list (permutations (List.init k Fun.id))) in
  let saved = Array.make k 0.0 and edge = [| 0.0 |] in
  let rows = Hashtbl.create 64 in
  Array.iter
    (fun id ->
      let key = int_of_float (Float.round (d.y.{id} *. 4.0)) in
      Hashtbl.replace rows key (id :: (try Hashtbl.find rows key with Not_found -> [])))
    ws.movables;
  let improved = ref 0 in
  Hashtbl.iter
    (fun _ cells ->
      (* Stable: ties keep bucket order, as the reference's [List.sort]. *)
      let sorted = Array.of_list cells in
      Array.stable_sort (by_x d) sorted;
      let n = Array.length sorted in
      for i = 0 to n - k do
        (* Occupied span starts at the window's leftmost edge; cells are
           consecutive in x (the array is re-sorted after every change),
           so packing the window's total width from there stays inside
           the span it already occupied. *)
        let left_edge = ref Float.infinity in
        let len = ref 0 in
        for q = 0 to k - 1 do
          let id = sorted.(i + q) in
          left_edge := Float.min !left_edge (d.x.{id} -. (d.w.{id} /. 2.0));
          saved.(q) <- d.x.{id};
          len := merge_row ws !len id
        done;
        edge.(0) <- !left_edge;
        let len = !len in
        let nets = ws.nets and m = ws.m in
        let best_cost = ref 0.0 in
        for q = 0 to len - 1 do
          best_cost := !best_cost +. ws.hpwl.(nets.(q))
        done;
        let best = ref (-1) in
        for p = 0 to Array.length perms - 1 do
          pack d sorted i perms.(p) edge;
          (* exact early exit, as in [pass_ws] *)
          let bound = !best_cost -. 1e-9 in
          let c = ref 0.0 and q = ref 0 in
          while !q < len && not (!c >= bound) do
            Design.net_hpwl_into d nets.(!q) m;
            c := !c +. m.(4);
            incr q
          done;
          let c = !c in
          if c < !best_cost -. 1e-9 then begin
            best_cost := c;
            best := p
          end
        done;
        if !best >= 0 then begin
          pack d sorted i perms.(!best) edge;
          incr improved;
          for q = 0 to len - 1 do
            Design.net_hpwl_into d nets.(q) m;
            ws.hpwl.(nets.(q)) <- m.(4)
          done;
          Array.sort (by_x d) sorted
        end
        else
          for q = 0 to k - 1 do
            d.x.{sorted.(i + q)} <- saved.(q)
          done
      done)
    rows;
  !improved

(** Sliding-window row reordering: take [k] consecutive cells of a row,
    try every permutation in the same span (cells re-packed left to right
    into the occupied interval), keep the best by local HPWL. Exact within
    the window; preserves legality (same span, same row). Returns the
    number of improving windows. *)
let reorder_rows ?k (d : Design.t) = reorder_ws (create d) ?k d

(** Run up to [passes] improvement sweeps of pair swapping plus one row
    reordering sweep (stops early when a sweep makes no progress).
    Returns total accepted improvements. *)
let run ?(passes = 3) ?(window = 6) (d : Design.t) =
  let ws = create d in
  let total = ref 0 in
  let continue_ = ref true in
  let k = ref 0 in
  while !continue_ && !k < passes do
    let acc = pass_ws ws d ~window in
    total := !total + acc;
    if acc = 0 then continue_ := false;
    incr k
  done;
  total := !total + reorder_ws ws d;
  !total
