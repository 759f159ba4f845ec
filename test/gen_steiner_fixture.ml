(* Writes the Steiner tie fixture read by the rctree suite
   ("steiner matches tie fixture"): about 200 seeded terminal sets of
   2-40 terminals with their [Rctree.Steiner.steiner] trees and the
   [Rctree.Elmore.compute] result over each tree, every float as an
   OCaml hex literal so the comparison is bit for bit. The sets lean on
   the cases where the Prim search has to break ties: duplicate points,
   collinear runs, small integer grids and signed zeros. The Elmore
   lines pin the summation order (children visited in descending index).

     dune exec test/gen_steiner_fixture.exe > test/fixtures/steiner_trees

   Regenerate only when the tree construction is meant to change. *)

let num_cases = 200

(* Per-unit wire RC of the Elmore lines; not exactly representable, so
   a change of summation order shows in the low bits. *)
let r = 0.37

let c = 0.21

let gen_case rng k =
  let n = 2 + Util.Rng.int rng 39 in
  let pick a = a.(Util.Rng.int rng (Array.length a)) in
  let grid lo hi = float_of_int (Util.Rng.range rng lo (hi + 1)) in
  match k mod 8 with
  | 0 ->
      (* generic placement-like coordinates *)
      ( Array.init n (fun _ -> Util.Rng.float rng 100.0),
        Array.init n (fun _ -> Util.Rng.float rng 100.0) )
  | 1 ->
      (* small integer grid: equal distances everywhere *)
      (Array.init n (fun _ -> grid 0 4), Array.init n (fun _ -> grid 0 4))
  | 2 ->
      (* duplicate points: n draws from a few distinct pins *)
      let m = 1 + Util.Rng.int rng 4 in
      let px = Array.init m (fun _ -> Util.Rng.float rng 50.0) in
      let py = Array.init m (fun _ -> Util.Rng.float rng 50.0) in
      let idx = Array.init n (fun _ -> Util.Rng.int rng m) in
      (Array.map (fun i -> px.(i)) idx, Array.map (fun i -> py.(i)) idx)
  | 3 ->
      (* collinear: one shared row, column, or a diagonal *)
      let t = Array.init n (fun _ -> grid (-20) 20) in
      let c = Util.Rng.float rng 30.0 in
      (match Util.Rng.int rng 3 with
      | 0 -> (t, Array.make n c)
      | 1 -> (Array.make n c, t)
      | _ -> (t, Array.copy t))
  | 4 ->
      (* signed zeros among unit steps *)
      let vals = [| 0.0; -0.0; 1.0; -1.0; 2.0 |] in
      (Array.init n (fun _ -> pick vals), Array.init n (fun _ -> pick vals))
  | 5 ->
      (* a trunk on the x = +-0 line with sinks on both sides: Steiner
         points clamp onto it and keep the sign of zero min/max picks *)
      let xs = Array.init n (fun i -> if i mod 2 = 0 then pick [| 0.0; -0.0 |] else grid (-5) 5) in
      let ys = Array.init n (fun _ -> grid (-10) 10) in
      if Util.Rng.bool rng then (ys, xs) else (xs, ys)
  | 6 ->
      (* near ties: integer grid nudged by less than the 1e-12 margin an
         edge attachment must win by *)
      let nudge () = pick [| 0.0; 0.0; 4e-13; -4e-13 |] in
      ( Array.init n (fun _ -> grid 0 6 +. nudge ()),
        Array.init n (fun _ -> grid 0 6 +. nudge ()) )
  | _ ->
      (* half-unit grid around the origin, root repeated among the sinks *)
      let xs = Array.init n (fun _ -> 0.5 *. grid (-20) 20) in
      let ys = Array.init n (fun _ -> 0.5 *. grid (-20) 20) in
      if n > 2 then begin
        xs.(n - 1) <- xs.(0);
        ys.(n - 1) <- ys.(0)
      end;
      (xs, ys)

let floats a = String.concat " " (Array.to_list (Array.map (Printf.sprintf "%h") a))

let ints a = String.concat " " (Array.to_list (Array.map string_of_int a))

let () =
  let rng = Util.Rng.create 20260417 in
  Printf.printf "# steiner tie fixture: %d cases; floats are OCaml hex literals\n" num_cases;
  for k = 0 to num_cases - 1 do
    let xs, ys = gen_case rng k in
    let caps = Array.init (Array.length xs) (fun _ -> Util.Rng.float rng 3.0) in
    let t = Rctree.Steiner.steiner ~xs ~ys in
    let e = Rctree.Elmore.compute t ~r ~c ~term_cap:(fun i -> caps.(i)) in
    Printf.printf "case %d %d %d\n" k (Array.length xs) (Rctree.Steiner.num_nodes t);
    Printf.printf "in_x %s\n" (floats xs);
    Printf.printf "in_y %s\n" (floats ys);
    Printf.printf "in_cap %s\n" (floats caps);
    Printf.printf "parent %s\n" (ints t.parent);
    Printf.printf "terminal %s\n" (ints t.terminal);
    Printf.printf "xs %s\n" (floats t.xs);
    Printf.printf "ys %s\n" (floats t.ys);
    Printf.printf "edge_len %s\n" (floats t.edge_len);
    Printf.printf "elmore %h %h\n" e.total_cap e.total_wirelen;
    Printf.printf "delay %s\n" (floats e.sink_delay)
  done
