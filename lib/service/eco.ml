(** ECO deltas (see the interface). Validation runs in full before any
    mutation: a rejected delta must leave the design exactly as it was,
    or the daemon's warm state would drift from what the client thinks
    is loaded. *)

open Netlist

type op =
  | Move of { cell : int; x : float; y : float }
  | Move_by of { cell : int; dx : float; dy : float }
  | Set_clock of float
  | Set_wire_rc of { r : float; c : float }
  | Reweight of { net : int; weight : float }

type t = op list

type applied = {
  moved : int list;
  clock : float option;
  rc_changed : bool;
  reweighted : int;
}

(* ---- JSON codec ---- *)

let op_of_json j =
  let fl key = match Obs.Json.member key j with Some v -> Obs.Json.to_float v | None -> None in
  let it key = match Obs.Json.member key j with Some v -> Obs.Json.to_int v | None -> None in
  match Obs.Json.member "op" j with
  | Some (Obs.Json.String "move") -> (
      match (it "cell", fl "x", fl "y") with
      | Some cell, Some x, Some y -> Ok (Move { cell; x; y })
      | _ -> Error "move needs int \"cell\" and numbers \"x\",\"y\"")
  | Some (Obs.Json.String "move_by") -> (
      match (it "cell", fl "dx", fl "dy") with
      | Some cell, Some dx, Some dy -> Ok (Move_by { cell; dx; dy })
      | _ -> Error "move_by needs int \"cell\" and numbers \"dx\",\"dy\"")
  | Some (Obs.Json.String "set_clock") -> (
      match fl "period" with
      | Some p -> Ok (Set_clock p)
      | None -> Error "set_clock needs number \"period\"")
  | Some (Obs.Json.String "set_wire_rc") -> (
      match (fl "r", fl "c") with
      | Some r, Some c -> Ok (Set_wire_rc { r; c })
      | _ -> Error "set_wire_rc needs numbers \"r\",\"c\"")
  | Some (Obs.Json.String "reweight") -> (
      match (it "net", fl "weight") with
      | Some net, Some weight -> Ok (Reweight { net; weight })
      | _ -> Error "reweight needs int \"net\" and number \"weight\"")
  | Some (Obs.Json.String s) -> Error ("unknown ECO op " ^ s)
  | _ -> Error "ECO op object needs a string \"op\" field"

let of_json = function
  | Obs.Json.List items ->
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | j :: rest -> ( match op_of_json j with Ok op -> go (op :: acc) rest | Error e -> Error e)
      in
      go [] items
  | _ -> Error "ECO delta must be a JSON list of op objects"

let op_to_json = function
  | Move { cell; x; y } ->
      Obs.Json.Obj
        [
          ("op", Obs.Json.String "move");
          ("cell", Obs.Json.Int cell);
          ("x", Obs.Json.Float x);
          ("y", Obs.Json.Float y);
        ]
  | Move_by { cell; dx; dy } ->
      Obs.Json.Obj
        [
          ("op", Obs.Json.String "move_by");
          ("cell", Obs.Json.Int cell);
          ("dx", Obs.Json.Float dx);
          ("dy", Obs.Json.Float dy);
        ]
  | Set_clock p -> Obs.Json.Obj [ ("op", Obs.Json.String "set_clock"); ("period", Obs.Json.Float p) ]
  | Set_wire_rc { r; c } ->
      Obs.Json.Obj
        [ ("op", Obs.Json.String "set_wire_rc"); ("r", Obs.Json.Float r); ("c", Obs.Json.Float c) ]
  | Reweight { net; weight } ->
      Obs.Json.Obj
        [
          ("op", Obs.Json.String "reweight");
          ("net", Obs.Json.Int net);
          ("weight", Obs.Json.Float weight);
        ]

let to_json ops = Obs.Json.List (List.map op_to_json ops)

(* ---- application ---- *)

let validate_op (d : Design.t) = function
  | Move { cell; x; y } ->
      if cell < 0 || cell >= Design.num_cells d then Some (Printf.sprintf "move: no cell %d" cell)
      else if not (Design.is_movable d cell) then
        Some (Printf.sprintf "move: cell %d is fixed" cell)
      else if not (Float.is_finite x && Float.is_finite y) then
        Some (Printf.sprintf "move: non-finite target for cell %d" cell)
      else None
  | Move_by { cell; dx; dy } ->
      if cell < 0 || cell >= Design.num_cells d then
        Some (Printf.sprintf "move_by: no cell %d" cell)
      else if not (Design.is_movable d cell) then
        Some (Printf.sprintf "move_by: cell %d is fixed" cell)
      else if not (Float.is_finite dx && Float.is_finite dy) then
        Some (Printf.sprintf "move_by: non-finite displacement for cell %d" cell)
      else None
  | Set_clock _ | Set_wire_rc _ -> None (* range-checked as config below *)
  | Reweight { net; weight } ->
      if net < 0 || net >= Design.num_nets d then Some (Printf.sprintf "reweight: no net %d" net)
      else if not (Float.is_finite weight && weight >= 0.0) then
        Some (Printf.sprintf "reweight: weight for net %d must be finite and >= 0" net)
      else None

let apply (d : Design.t) (ops : t) =
  (* Whole-delta validation first: partial application would desync the
     daemon's warm state from the client's view of it. *)
  let problems = List.filter_map (validate_op d) ops in
  if problems <> [] then Util.Errors.invalid_design ~design:d.Design.name problems;
  List.iter
    (function
      | Set_clock p when not (Float.is_finite p && p > 0.0) ->
          Util.Errors.config_error ~what:"eco.set_clock"
            (Printf.sprintf "period must be finite and positive, got %g" p)
      | Set_wire_rc { r; c } when not (Float.is_finite r && r >= 0.0 && Float.is_finite c && c >= 0.0)
        ->
          Util.Errors.config_error ~what:"eco.set_wire_rc" "r and c must be finite and >= 0"
      | _ -> ())
    ops;
  let moved = Hashtbl.create 16 in
  let clock = ref None in
  let rc_changed = ref false in
  let reweighted = ref 0 in
  List.iter
    (fun op ->
      match op with
      | Move { cell; x; y } ->
          d.Design.x.{cell} <- x;
          d.Design.y.{cell} <- y;
          Hashtbl.replace moved cell ()
      | Move_by { cell; dx; dy } ->
          d.Design.x.{cell} <- d.Design.x.{cell} +. dx;
          d.Design.y.{cell} <- d.Design.y.{cell} +. dy;
          Hashtbl.replace moved cell ()
      | Set_clock p ->
          d.Design.clock_period <- p;
          clock := Some p
      | Set_wire_rc { r; c } ->
          d.Design.r_per_unit <- r;
          d.Design.c_per_unit <- c;
          rc_changed := true
      | Reweight { net; weight } ->
          d.Design.net_weight.{net} <- weight;
          incr reweighted)
    ops;
  if Hashtbl.length moved > 0 then Design.clamp_movable d;
  {
    moved = Hashtbl.fold (fun cell () acc -> cell :: acc) moved [];
    clock = !clock;
    rc_changed = !rc_changed;
    reweighted = !reweighted;
  }

(* Largest random displacement, as a fraction of the die span. *)
let max_disp_frac = 0.02

let random ?(seed = 7) ~frac (d : Design.t) =
  let rng = Util.Rng.create seed in
  let movable = Array.of_list (Design.movable_ids d) in
  let nm = Array.length movable in
  if nm = 0 then []
  else begin
    let count = max 1 (int_of_float (frac *. float_of_int nm)) in
    let die = d.Design.die in
    let sx = max_disp_frac *. (die.Geom.Rect.xh -. die.Geom.Rect.xl) in
    let sy = max_disp_frac *. (die.Geom.Rect.yh -. die.Geom.Rect.yl) in
    List.init count (fun _ ->
        let cell = movable.(Util.Rng.int rng nm) in
        Move_by
          {
            cell;
            dx = Util.Rng.float_range rng (-.sx) sx;
            dy = Util.Rng.float_range rng (-.sy) sy;
          })
  end
