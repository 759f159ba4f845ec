(** Timing-aware detailed placement — the "incremental timing-driven
    placement" setting of the ICCAD2015 contest, built on the timer's
    incremental update.

    After legalization, cells on failing paths are tried at swap positions
    with nearby same-width cells; a swap is kept when the incrementally
    re-timed TNS improves (ties broken by HPWL). Legality is preserved by
    only exchanging equal-width cells. *)

open Netlist

type stats = {
  candidates : int;
  accepted : int;
  tns_before : float;
  tns_after : float;
}

(* Cells owning pins on the worst paths of failing endpoints. *)
let critical_cells (d : Design.t) timer ~max_endpoints =
  let failing = Sta.Timer.failing_endpoints timer in
  let tbl = Hashtbl.create 256 in
  List.iteri
    (fun i e ->
      if i < max_endpoints then
        match Sta.Timer.worst_path timer ~endpoint:e with
        | None -> ()
        | Some p ->
            Array.iter
              (fun pid ->
                let cid = d.pin_owner.(pid) in
                if Design.is_movable d cid then Hashtbl.replace tbl cid ())
              p.Sta.Paths.pins)
    failing;
  Hashtbl.fold (fun id () acc -> id :: acc) tbl []

let swap (d : Design.t) a b =
  let tx = d.x.{a} and ty = d.y.{a} in
  d.x.{a} <- d.x.{b};
  d.y.{a} <- d.y.{b};
  d.x.{b} <- tx;
  d.y.{b} <- ty

(** Run on a legal placement. [max_endpoints] bounds the critical set,
    [window] the neighbour search distance (in sites). Returns stats; the
    placement is left at the improved (still legal) state. *)
let run ?(max_endpoints = 50) ?(window = 8.0) (d : Design.t) =
  let timer = Sta.Timer.create ~topology:Sta.Delay.Steiner_tree d in
  Sta.Timer.update timer;
  let tns_before = Sta.Timer.tns timer in
  let crits = critical_cells d timer ~max_endpoints in
  (* Same-width swap partners near each critical cell. *)
  let movables = Array.of_list (Design.movable_ids d) in
  let candidates = ref 0 and accepted = ref 0 in
  List.iter
    (fun a ->
      let best_tns = ref (Sta.Timer.tns timer) in
      let best_partner = ref None in
      Array.iter
        (fun b ->
          if
            b <> a
            && d.w.{b} = d.w.{a}
            && Float.abs (d.x.{b} -. d.x.{a}) +. Float.abs (d.y.{b} -. d.y.{a}) <= window
          then begin
            incr candidates;
            swap d a b;
            Sta.Timer.update_moved timer ~cells:[ a; b ];
            let tns = Sta.Timer.tns timer in
            if tns > !best_tns +. 1e-9 then begin
              best_tns := tns;
              best_partner := Some b
            end;
            (* restore and re-time back *)
            swap d a b;
            Sta.Timer.update_moved timer ~cells:[ a; b ]
          end)
        movables;
      match !best_partner with
      | Some b ->
          swap d a b;
          Sta.Timer.update_moved timer ~cells:[ a; b ];
          incr accepted
      | None -> ())
    crits;
  let tns_after = Sta.Timer.tns timer in
  { candidates = !candidates; accepted = !accepted; tns_before; tns_after }
