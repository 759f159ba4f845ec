(** Incremental timing demo: after small placement changes (ECO-style
    moves), [Timer.update_moved] refreshes only the touched nets and
    re-propagates — much cheaper than a full delay recalculation, and
    bit-identical to it.

    Run with: dune exec examples/incremental_sta.exe *)

let () =
  let d = Workloads.Suite.load ~scale:0.5 "sb1" in
  ignore (Gp.Globalplace.run d);
  let placed = Netlist.Design.snapshot d in
  let timer = Sta.Timer.create d in
  Printf.printf "design %s placed: tns=%.1f wns=%.1f (setup)  ths=%.1f whs=%.1f (hold)\n\n"
    d.name (Sta.Timer.tns timer) (Sta.Timer.wns timer) (Sta.Timer.ths timer)
    (Sta.Timer.whs timer);

  let rng = Util.Rng.create 7 in
  let movable = Array.of_list (Netlist.Design.movable_ids d) in
  let moves = 200 in

  (* Timed loop 1: full update after each single-cell move. *)
  let t0 = Unix.gettimeofday () in
  for _ = 1 to moves do
    let id = Util.Rng.choose rng movable in
    d.x.{id} <- d.x.{id} +. Util.Rng.float_range rng (-1.0) 1.0;
    Sta.Timer.invalidate timer;
    Sta.Timer.update timer
  done;
  let t_full = Unix.gettimeofday () -. t0 in
  let tns_full = Sta.Timer.tns timer in

  (* Timed loop 2: incremental update for the same move pattern. *)
  let rng = Util.Rng.create 7 in
  Netlist.Design.restore d placed;
  Sta.Timer.update timer;
  let t0 = Unix.gettimeofday () in
  for _ = 1 to moves do
    let id = Util.Rng.choose rng movable in
    d.x.{id} <- d.x.{id} +. Util.Rng.float_range rng (-1.0) 1.0;
    Sta.Timer.update_moved timer ~cells:[ id ]
  done;
  let t_inc = Unix.gettimeofday () -. t0 in
  let tns_inc = Sta.Timer.tns timer in

  Printf.printf "%d single-cell moves, re-timed after each:\n" moves;
  Printf.printf "  full update       : %7.1f ms total  -> tns %.3f\n" (1e3 *. t_full) tns_full;
  Printf.printf "  incremental update: %7.1f ms total  -> tns %.3f\n" (1e3 *. t_inc) tns_inc;
  Printf.printf "  speedup: %.1fx, results identical: %b\n" (t_full /. t_inc)
    (Float.abs (tns_full -. tns_inc) < 1e-6)
