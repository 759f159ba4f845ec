(** Simulated-annealing timing refinement (in the spirit of Swartz &
    Sechen's TimberWolf-style timing-driven placement, paper ref [27]):
    equal-width cell swaps accepted by Metropolis on a combined
    TNS + wirelength cost, every candidate re-timed exactly with the
    incremental timer. Runs on a legal placement and preserves legality;
    the best state seen is restored at the end, so the result never
    regresses the start. *)

open Netlist

type stats = {
  moves : int;
  accepted : int;
  tns_before : float;
  tns_after : float;
  hpwl_before : float;
  hpwl_after : float;
}

let swap (d : Design.t) a b =
  let tx = d.x.{a} and ty = d.y.{a} in
  d.x.{a} <- d.x.{b};
  d.y.{a} <- d.y.{b};
  d.x.{b} <- tx;
  d.y.{b} <- ty

(* Combined cost: negative slack dominates; wirelength is a regulariser
   with weight chosen so a site of wire trades against ~1 ps of TNS. *)
let wl_weight = 0.2

let cost ~tns ~hpwl = -.tns +. (wl_weight *. hpwl)

(* Metropolis schedule: starting temperature (ps of cost), per-move decay. *)
let t0 = 15.0
let alpha = 0.998

(* Fixed RNG seed, so runs repeat, and the Manhattan radius of the
   partner search. *)
let seed = 1
let window = 12.0

let run ?(moves = 2000) timer =
  let d = Sta.Timer.design timer in
  let rng = Util.Rng.create seed in
  Sta.Timer.update timer;
  let tns_before = Sta.Timer.tns timer in
  let hpwl_before = Design.total_hpwl d in
  (* Candidate pool: width -> movable cells, so random picks always have
     a legal partner. *)
  let by_width = Hashtbl.create 8 in
  List.iter
    (fun id ->
      let w = d.w.{id} in
      Hashtbl.replace by_width w (id :: (try Hashtbl.find by_width w with Not_found -> [])))
    (Design.movable_ids d);
  let pool_of id =
    Array.of_list (try Hashtbl.find by_width d.w.{id} with Not_found -> [ id ])
  in
  let pools =
    Hashtbl.fold (fun _ l acc -> if List.length l >= 2 then Array.of_list l :: acc else acc)
      by_width []
    |> Array.of_list
  in
  (* Cells on currently-failing worst paths: moves that matter. *)
  let critical_cells () =
    let failing = Sta.Timer.failing_endpoints timer in
    let tbl = Hashtbl.create 128 in
    List.iteri
      (fun i e ->
        if i < 40 then
          match Sta.Timer.worst_path timer ~endpoint:e with
          | None -> ()
          | Some p ->
              Array.iter
                (fun pid ->
                  let cid = d.pin_owner.(pid) in
                  if Design.is_movable d cid then Hashtbl.replace tbl cid ())
                p.Sta.Paths.pins)
      failing;
    Array.of_list (Hashtbl.fold (fun id () acc -> id :: acc) tbl [])
  in
  let crits = ref (critical_cells ()) in
  (* Partner for [a]: a same-width cell within [window]; a handful of
     random candidates is enough (locality keeps wirelength damage low). *)
  let nearby_partner a =
    let pool = pool_of a in
    let rec try_k k best =
      if k = 0 then best
      else begin
        let b = Util.Rng.choose rng pool in
        if b <> a && Float.abs (d.x.{b} -. d.x.{a}) +. Float.abs (d.y.{b} -. d.y.{a}) <= window
        then Some b
        else try_k (k - 1) best
      end
    in
    try_k 12 None
  in
  let accepted = ref 0 in
  let cur_cost = ref (cost ~tns:tns_before ~hpwl:hpwl_before) in
  let best_cost = ref !cur_cost in
  let best_snap = ref (Design.snapshot d) in
  let temp = ref t0 in
  let actual_moves = ref 0 in
  if Array.length pools > 0 then
    for m = 1 to moves do
      incr actual_moves;
      if m mod 500 = 0 then crits := critical_cells ();
      let a =
        if Array.length !crits > 0 && Util.Rng.bernoulli rng 0.7 then Util.Rng.choose rng !crits
        else Util.Rng.choose rng (Util.Rng.choose rng pools)
      in
      let b = match nearby_partner a with Some b -> b | None -> a in
      if a <> b then begin
        swap d a b;
        Sta.Timer.update_moved timer ~cells:[ a; b ];
        let c = cost ~tns:(Sta.Timer.tns timer) ~hpwl:(Design.total_hpwl d) in
        let delta = c -. !cur_cost in
        let accept =
          delta <= 0.0 || Util.Rng.float rng 1.0 < exp (-.delta /. Float.max 1e-9 !temp)
        in
        if accept then begin
          incr accepted;
          cur_cost := c;
          if c < !best_cost then begin
            best_cost := c;
            best_snap := Design.snapshot d
          end
        end
        else begin
          swap d a b;
          Sta.Timer.update_moved timer ~cells:[ a; b ]
        end
      end;
      temp := !temp *. alpha
    done;
  (* Restore the best state seen (never worse than the start). *)
  Design.restore d !best_snap;
  Sta.Timer.invalidate timer;
  Sta.Timer.update timer;
  {
    moves = !actual_moves;
    accepted = !accepted;
    tns_before;
    tns_after = Sta.Timer.tns timer;
    hpwl_before;
    hpwl_after = Design.total_hpwl d;
  }
