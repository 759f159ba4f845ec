(** Brute-force placement-objective references (see the interface). *)

open Netlist

let points_hpwl ~xs ~ys =
  let n = Array.length xs in
  if n <= 1 then 0.0
  else begin
    let xmin = ref xs.(0) and xmax = ref xs.(0) and ymin = ref ys.(0) and ymax = ref ys.(0) in
    for i = 1 to n - 1 do
      if xs.(i) < !xmin then xmin := xs.(i);
      if xs.(i) > !xmax then xmax := xs.(i);
      if ys.(i) < !ymin then ymin := ys.(i);
      if ys.(i) > !ymax then ymax := ys.(i)
    done;
    !xmax -. !xmin +. (!ymax -. !ymin)
  end

let points_hpwl_pairwise ~xs ~ys =
  let n = Array.length xs in
  if n <= 1 then 0.0
  else begin
    (* Width/height as the max absolute difference over all pairs. *)
    let w = ref 0.0 and h = ref 0.0 in
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        if Float.abs (xs.(i) -. xs.(j)) > !w then w := Float.abs (xs.(i) -. xs.(j));
        if Float.abs (ys.(i) -. ys.(j)) > !h then h := Float.abs (ys.(i) -. ys.(j))
      done
    done;
    !w +. !h
  end

let net_points (d : Design.t) nid =
  let pids = Design.net_pins d nid in
  let xs = Array.map (fun pid -> Design.pin_x d pid) pids in
  let ys = Array.map (fun pid -> Design.pin_y d pid) pids in
  (xs, ys)

let hpwl_direct (d : Design.t) =
  let acc = ref 0.0 in
  for nid = 0 to Design.num_nets d - 1 do
    let xs, ys = net_points d nid in
    acc := !acc +. (d.net_weight.{nid} *. points_hpwl_pairwise ~xs ~ys)
  done;
  !acc

(* WA extent straight from the definition, shifted by max/min for
   stability (an independent derivation, not the production loop). *)
let wa_extent ~gamma coords =
  let n = Array.length coords in
  if n <= 1 then 0.0
  else begin
    let cmax = Array.fold_left Float.max Float.neg_infinity coords in
    let cmin = Array.fold_left Float.min Float.infinity coords in
    let num_max = ref 0.0 and den_max = ref 0.0 in
    let num_min = ref 0.0 and den_min = ref 0.0 in
    Array.iter
      (fun x ->
        let a = exp ((x -. cmax) /. gamma) in
        let b = exp ((cmin -. x) /. gamma) in
        num_max := !num_max +. (x *. a);
        den_max := !den_max +. a;
        num_min := !num_min +. (x *. b);
        den_min := !den_min +. b)
      coords;
    (!num_max /. !den_max) -. (!num_min /. !den_min)
  end

let wa_value (d : Design.t) ~gamma =
  let acc = ref 0.0 in
  for nid = 0 to Design.num_nets d - 1 do
    let xs, ys = net_points d nid in
    acc := !acc +. (d.net_weight.{nid} *. (wa_extent ~gamma xs +. wa_extent ~gamma ys))
  done;
  !acc

open Compare

(* Central finite difference of [value ()] w.r.t. one coordinate cell. *)
let fd_of (coord : Design.farr) cell ~h ~value =
  let saved = coord.{cell} in
  coord.{cell} <- saved +. h;
  let plus = value () in
  coord.{cell} <- saved -. h;
  let minus = value () in
  coord.{cell} <- saved;
  (plus -. minus) /. (2.0 *. h)

(* Defaults fit the WA check. h = 0.05: small enough that the
   O(h^2/gamma^2) truncation sits well under rtol, large enough that the
   value difference dominates double roundoff on designs of this size. *)
let fd_check_cells ?(h = 0.05) ?(rtol = 1e-4) (d : Design.t) ~cells ~value ~gx ~gy ~what =
  let scale =
    (* Tolerance floor: FD noise is absolute in the value's magnitude. *)
    1e-6 *. (1.0 +. Float.abs (value ())) /. h
  in
  all
    (List.concat_map
       (fun cell ->
         let fx = fd_of d.x cell ~h ~value in
         let fy = fd_of d.y cell ~h ~value in
         [
           check_float ~rtol ~atol:(scale *. rtol) ~what:(Printf.sprintf "%s d/dx cell %d" what cell)
             gx.(cell) fx;
           check_float ~rtol ~atol:(scale *. rtol) ~what:(Printf.sprintf "%s d/dy cell %d" what cell)
             gy.(cell) fy;
         ])
       cells)

let wa_fd_check ?h ?rtol (d : Design.t) ~gamma ~cells =
  let nc = Design.num_cells d in
  let gx = Array.make nc 0.0 and gy = Array.make nc 0.0 in
  ignore (Gp.Wirelength.wa_wirelength_grad ~par:(Util.Parallel.default ()) d ~gamma ~gx ~gy);
  fd_check_cells ?h ?rtol d ~cells ~value:(fun () -> wa_value d ~gamma) ~gx ~gy ~what:"wa"

let pin_attract_fd_check ?(h = 0.25) ?(rtol = 1e-4) (d : Design.t) attract ~cells =
  let nc = Design.num_cells d in
  let gx = Array.make nc 0.0 and gy = Array.make nc 0.0 in
  Tdp.Pin_attract.add_grad attract ~gx ~gy;
  fd_check_cells ~h ~rtol d ~cells
    ~value:(fun () -> Tdp.Pin_attract.loss_value attract)
    ~gx ~gy ~what:"pin_attract"

(* Inflation rule restated from the ePlace smoothing definition: cells
   thinner than a bin stretch to bin size, density scaled to keep area. *)
let density_direct (d : Design.t) (grid : Gp.Densitygrid.t) =
  let bins_x = grid.Gp.Densitygrid.bins_x and bins_y = grid.Gp.Densitygrid.bins_y in
  let bin_w = grid.Gp.Densitygrid.bin_w and bin_h = grid.Gp.Densitygrid.bin_h in
  let die = grid.Gp.Densitygrid.die in
  let out = Array.make (bins_x * bins_y) 0.0 in
  for id = 0 to Design.num_cells d - 1 do
    if Design.is_movable d id then begin
      let cw = d.w.{id} and ch = d.h.{id} in
      let ew = Float.max cw bin_w and eh = Float.max ch bin_h in
      let scale = cw *. ch /. (ew *. eh) in
      let xl = d.x.{id} -. (ew /. 2.0) and xh = d.x.{id} +. (ew /. 2.0) in
      let yl = d.y.{id} -. (eh /. 2.0) and yh = d.y.{id} +. (eh /. 2.0) in
      for by = 0 to bins_y - 1 do
        for bx = 0 to bins_x - 1 do
          let b_xl = die.Geom.Rect.xl +. (float_of_int bx *. bin_w) in
          let b_yl = die.Geom.Rect.yl +. (float_of_int by *. bin_h) in
          let ox = Float.min xh (b_xl +. bin_w) -. Float.max xl b_xl in
          let oy = Float.min yh (b_yl +. bin_h) -. Float.max yl b_yl in
          if ox > 0.0 && oy > 0.0 then
            out.((by * bins_x) + bx) <- out.((by * bins_x) + bx) +. (ox *. oy *. scale)
        done
      done
    end
  done;
  out

let bilinear ~field ~bins_x ~bins_y ~die ~bin_w ~bin_h px py =
  let fx = ((px -. die.Geom.Rect.xl) /. bin_w) -. 0.5 in
  let fy = ((py -. die.Geom.Rect.yl) /. bin_h) -. 0.5 in
  let bx = int_of_float (floor fx) and by = int_of_float (floor fy) in
  let tx = fx -. float_of_int bx and ty = fy -. float_of_int by in
  let clampx v = max 0 (min (bins_x - 1) v) in
  let clampy v = max 0 (min (bins_y - 1) v) in
  let at bx by = field.((clampy by * bins_x) + clampx bx) in
  let v00 = at bx by and v10 = at (bx + 1) by and v01 = at bx (by + 1) and v11 = at (bx + 1) (by + 1) in
  ((v00 *. (1.0 -. tx)) +. (v10 *. tx)) *. (1.0 -. ty)
  +. (((v01 *. (1.0 -. tx)) +. (v11 *. tx)) *. ty)

let electro_grad_expected (e : Gp.Electro.t) (d : Design.t) =
  let g = e.Gp.Electro.grid in
  let bins_x = g.Gp.Densitygrid.bins_x and bins_y = g.Gp.Densitygrid.bins_y in
  let bin_w = g.Gp.Densitygrid.bin_w and bin_h = g.Gp.Densitygrid.bin_h in
  let die = g.Gp.Densitygrid.die in
  let nc = Design.num_cells d in
  let gx = Array.make nc 0.0 and gy = Array.make nc 0.0 in
  for id = 0 to nc - 1 do
    if Design.is_movable d id then begin
      let q = d.w.{id} *. d.h.{id} in
      let fx =
        bilinear ~field:e.Gp.Electro.ex ~bins_x ~bins_y ~die ~bin_w ~bin_h d.x.{id} d.y.{id}
        /. bin_w
      in
      let fy =
        bilinear ~field:e.Gp.Electro.ey ~bins_x ~bins_y ~die ~bin_w ~bin_h d.x.{id} d.y.{id}
        /. bin_h
      in
      gx.(id) <- -.(q *. fx);
      gy.(id) <- -.(q *. fy)
    end
  done;
  (gx, gy)

(* The list-based detailed placer, kept as written before the workspace
   rewrite of [Gp.Detailed]: fresh hashtables, list merges and two
   allocating [Design.net_hpwl] calls per net for every candidate. *)
module Detailed = struct
  (* HPWL over the nets incident to the given cells (each net counted once). *)
  let local_hpwl (d : Design.t) nets =
    List.fold_left (fun acc nid -> acc +. Design.net_hpwl d nid) 0.0 nets

  let incident_nets (d : Design.t) id =
    let tbl = Hashtbl.create 8 in
    Design.iter_cell_pins d id (fun pid ->
        let net = d.pin_net.(pid) in
        if net >= 0 then Hashtbl.replace tbl net ());
    Hashtbl.fold (fun k () acc -> k :: acc) tbl []

  let swap_positions (d : Design.t) a b =
    let tx = d.x.{a} and ty = d.y.{a} in
    d.x.{a} <- d.x.{b};
    d.y.{a} <- d.y.{b};
    d.x.{b} <- tx;
    d.y.{b} <- ty

  (** One pass; returns the number of accepted swaps. Only same-width cells
      are exchanged so legality is preserved trivially. *)
  let pass (d : Design.t) ~window =
    let movables = Array.of_list (Design.movable_ids d) in
    Array.sort (fun a b -> compare (d.y.{a}, d.x.{a}) (d.y.{b}, d.x.{b})) movables;
    let accepted = ref 0 in
    let n = Array.length movables in
    for i = 0 to n - 1 do
      let a = movables.(i) in
      for j = i + 1 to min (n - 1) (i + window) do
        let b = movables.(j) in
        if d.w.{a} = d.w.{b} && (d.x.{a} <> d.x.{b} || d.y.{a} <> d.y.{b}) then begin
          let nets =
            List.sort_uniq compare (incident_nets d a @ incident_nets d b)
          in
          let before = local_hpwl d nets in
          swap_positions d a b;
          let after = local_hpwl d nets in
          if after < before -. 1e-9 then incr accepted else swap_positions d a b
        end
      done
    done;
    !accepted

  (* All permutations of a small list. *)
  let rec permutations = function
    | [] -> [ [] ]
    | l ->
        List.concat_map
          (fun x ->
            let rest = List.filter (fun y -> y != x) l in
            List.map (fun p -> x :: p) (permutations rest))
          l

  (** Sliding-window row reordering: take [k] consecutive cells of a row,
      try every permutation in the same span (cells re-packed left to right
      into the occupied interval), keep the best by local HPWL. Exact within
      the window; preserves legality (same span, same row). Returns the
      number of improving windows. *)
  let reorder_rows ?(k = 3) (d : Design.t) =
    let rows = Hashtbl.create 64 in
    List.iter
      (fun id ->
        let key = int_of_float (Float.round (d.y.{id} *. 4.0)) in
        Hashtbl.replace rows key (id :: (try Hashtbl.find rows key with Not_found -> [])))
      (Design.movable_ids d);
    let improved = ref 0 in
    Hashtbl.iter
      (fun _ cells ->
        let sorted = List.sort (fun a b -> compare d.x.{a} d.x.{b}) cells |> Array.of_list in
        let n = Array.length sorted in
        let resort () = Array.sort (fun a b -> compare d.x.{a} d.x.{b}) sorted in
        for i = 0 to n - k do
          let window_cells = Array.to_list (Array.sub sorted i k) in
          (* Occupied span starts at the window's leftmost edge; cells are
             consecutive in x (the array is re-sorted after every change),
             so packing the window's total width from there stays inside
             the span it already occupied. *)
          let left_edge =
            List.fold_left
              (fun acc id -> Float.min acc (d.x.{id} -. (d.w.{id} /. 2.0)))
              Float.infinity window_cells
          in
          let nets = List.sort_uniq compare (List.concat_map (incident_nets d) window_cells) in
          let place order =
            let cur = ref left_edge in
            List.iter
              (fun id ->
                d.x.{id} <- !cur +. (d.w.{id} /. 2.0);
                cur := !cur +. d.w.{id})
              order
          in
          let saved = List.map (fun id -> (id, d.x.{id})) window_cells in
          let best_cost = ref (local_hpwl d nets) in
          let best_order = ref None in
          List.iter
            (fun order ->
              place order;
              let c = local_hpwl d nets in
              if c < !best_cost -. 1e-9 then begin
                best_cost := c;
                best_order := Some order
              end)
            (permutations window_cells);
          (match !best_order with
          | Some order ->
              place order;
              incr improved;
              resort ()
          | None -> List.iter (fun (id, x) -> d.x.{id} <- x) saved)
        done)
      rows;
    !improved

  (** Run up to [passes] improvement sweeps of pair swapping plus one row
      reordering sweep (stops early when a sweep makes no progress).
      Returns total accepted improvements. *)
  let run ?(passes = 3) ?(window = 6) (d : Design.t) =
    let total = ref 0 in
    let continue_ = ref true in
    let k = ref 0 in
    while !continue_ && !k < passes do
      let acc = pass d ~window in
      total := !total + acc;
      if acc = 0 then continue_ := false;
      incr k
    done;
    total := !total + reorder_rows d;
    !total
end
