(** Synthetic netlist generator.

    Produces levelized sequential circuits with the structural features
    the paper's experiments depend on: many register-to-register paths
    with shared segments (path-sharing), a long-tail fanout distribution
    (a few hub nets with large fanout, like buffered control signals),
    macros, and boundary IO. Deterministic given [Genparams.seed].

    Construction:
    1. sources = primary inputs + FF Q outputs (level 0);
    2. each combinational cell gets a level in [1, levels]; its inputs
       connect to drivers of strictly lower level (biased to the previous
       level), guaranteeing acyclicity;
    3. FF D pins and primary outputs consume high-level signals;
    4. drivers are sampled with hub weights for the fanout long tail;
    5. any signal left without sinks is exported through an extra pad. *)

open Netlist

(* Wire parasitics per site: r = 0.06 kOhm, c = 0.5 fF. A 20-site wire
   then adds 1.2 kOhm / 10 fF; through a 10 kOhm driver that is ~100 ps —
   wire delay dominates gate delay, the regime where placement owns the
   timing budget (as in the ICCAD2015 designs the paper evaluates). *)
let wire_r = 0.060

let wire_c = 0.50

let row_height = 1.0

type proto_driver = {
  cell : int; (* builder cell id *)
  out_pin : string;
  level : int;
  weight : float; (* sampling weight (hubs get more sinks) *)
  mutable net : int; (* builder net id, -1 until first sink *)
}

let die_of_area total_area utilization =
  let side = sqrt (total_area /. utilization) in
  (* Round up to whole rows. *)
  let side = Float.round (side +. 0.5) in
  Geom.Rect.make ~xl:0.0 ~yl:0.0 ~xh:side ~yh:side

let generate (p : Genparams.t) =
  let rng = Util.Rng.create p.seed in
  (* Pre-estimate area to size the die before building (cells carry their
     own sizes; we also reserve macro area). *)
  let avg_comb_area =
    let total =
      Array.fold_left
        (fun acc (lc : Libcell.t) -> acc +. (lc.width *. lc.height))
        0.0 Libcell.comb_cells
    in
    total /. float_of_int (Array.length Libcell.comb_cells)
  in
  let ff_area = Libcell.dff.Libcell.width *. Libcell.dff.Libcell.height in
  let movable_area =
    (float_of_int p.num_comb *. avg_comb_area) +. (float_of_int p.num_ff *. ff_area)
  in
  let macro_area_frac = Float.min 0.25 (float_of_int p.num_macros *. p.macro_frac *. p.macro_frac) in
  let die = die_of_area (movable_area /. (1.0 -. macro_area_frac)) p.utilization in
  let side = Geom.Rect.width die in
  let b =
    Builder.create ~name:p.name ~die ~row_height ~clock_period:1e9 ~r_per_unit:wire_r
      ~c_per_unit:wire_c
  in
  let ctr = Geom.Rect.center die in
  (* Macros: placed in a diagonal band, non-overlapping by construction. *)
  for m = 0 to p.num_macros - 1 do
    let mw = p.macro_frac *. side and mh = p.macro_frac *. side in
    let fx = (float_of_int m +. 0.7) /. (float_of_int p.num_macros +. 1.4) in
    let x = die.Geom.Rect.xl +. (fx *. side) in
    let y = die.Geom.Rect.yl +. ((1.0 -. fx) *. side) in
    ignore (Builder.add_blockage b ~cname:(Printf.sprintf "macro%d" m) ~x ~y ~w:mw ~h:mh)
  done;
  (* IO pads spaced around the boundary. *)
  let pad_pos i total =
    let t = float_of_int i /. float_of_int (max 1 total) in
    let per = 4.0 *. t in
    if per < 1.0 then (die.xl +. (per *. side), die.yl)
    else if per < 2.0 then (die.xh, die.yl +. ((per -. 1.0) *. side))
    else if per < 3.0 then (die.xh -. ((per -. 2.0) *. side), die.yh)
    else (die.xl, die.yh -. ((per -. 3.0) *. side))
  in
  let drivers = Util.Gvec.create () in
  let hubness () =
    (* Two-tier long tail: rare big hubs (buffered control), plus a band
       of moderate-fanout nets (shared logic). High-fanout nets on
       critical paths are exactly where net weighting over-constrains
       and fine-grained pin pairs do not. *)
    if Util.Rng.bernoulli rng p.fanout_hub_prob then p.fanout_hub_weight
    else if Util.Rng.bernoulli rng 0.15 then 6.0
    else 1.0
  in
  let n_io = p.num_inputs + p.num_outputs in
  for i = 0 to p.num_inputs - 1 do
    let x, y = pad_pos i n_io in
    let cell = Builder.add_input_pad b ~cname:(Printf.sprintf "pi%d" i) ~x ~y in
    Util.Gvec.push drivers { cell; out_pin = "p"; level = 0; weight = hubness (); net = -1 }
  done;
  (* FFs: their Q pins are level-0 sources; D pins collected for later. *)
  let ff_d_pins = Util.Gvec.create () in
  for i = 0 to p.num_ff - 1 do
    let cell =
      Builder.add_logic b
        ~cname:(Printf.sprintf "ff%d" i)
        ~lib:Libcell.dff ~x:ctr.Geom.Point.x ~y:ctr.Geom.Point.y ()
    in
    Util.Gvec.push drivers { cell; out_pin = "q"; level = 0; weight = hubness (); net = -1 };
    Util.Gvec.push ff_d_pins cell
  done;
  (* Combinational cells with levels. Level assignment is monotone in cell
     index so "drivers below my level" is a prefix of [drivers]. *)
  let comb_cells = Array.make p.num_comb (-1) in
  let level_of = Array.make p.num_comb 0 in
  for i = 0 to p.num_comb - 1 do
    level_of.(i) <- 1 + (i * p.levels / max 1 p.num_comb)
  done;
  (* Per-level index ranges over the drivers vector, filled as we go. *)
  let first_driver_at_level = Array.make (p.levels + 2) (Util.Gvec.length drivers) in
  first_driver_at_level.(0) <- 0;
  for i = 0 to p.num_comb - 1 do
    let lib = Util.Rng.choose rng Libcell.comb_cells in
    let cell =
      Builder.add_logic b
        ~cname:(Printf.sprintf "u%d" i)
        ~lib ~x:ctr.Geom.Point.x ~y:ctr.Geom.Point.y ()
    in
    comb_cells.(i) <- cell;
    let lvl = level_of.(i) in
    if first_driver_at_level.(lvl) > Util.Gvec.length drivers then
      first_driver_at_level.(lvl) <- Util.Gvec.length drivers;
    Util.Gvec.push drivers { cell; out_pin = "o"; level = lvl; weight = hubness (); net = -1 }
  done;
  for l = 1 to p.levels + 1 do
    if first_driver_at_level.(l) > Util.Gvec.length drivers then
      first_driver_at_level.(l) <- Util.Gvec.length drivers
  done;
  (* Coverage queue: per level, drivers not yet consumed by any sink.
     Sampling prefers fresh drivers (real netlists use almost every gate
     output), falling back to random re-use for fanout sharing, with a
     bias toward the immediately preceding level for depth and a tail over
     all lower levels for path sharing and reconvergence. *)
  let unsampled = Array.make (p.levels + 1) [] in
  for i = Util.Gvec.length drivers - 1 downto 0 do
    let drv = Util.Gvec.get drivers i in
    unsampled.(drv.level) <- i :: unsampled.(drv.level)
  done;
  let pop_unsampled level =
    (* Lazy deletion: skip drivers that were since connected randomly. *)
    let rec go = function
      | [] ->
          unsampled.(level) <- [];
          None
      | i :: rest ->
          let drv = Util.Gvec.get drivers i in
          if drv.net < 0 then begin
            unsampled.(level) <- rest;
            Some drv
          end
          else go rest
    in
    go unsampled.(level)
  in
  let sample_driver ~below =
    let lo_all = 0 and hi_all = first_driver_at_level.(below) in
    assert (hi_all > lo_all);
    let prev = max 0 (below - 1) in
    let fresh =
      if Util.Rng.bernoulli rng 0.65 then begin
        (* Coverage first: previous level, then any lower level. *)
        match pop_unsampled prev with
        | Some d -> Some d
        | None ->
            let rec scan l = if l < 0 then None else
              match pop_unsampled l with Some d -> Some d | None -> scan (l - 1)
            in
            scan (prev - 1)
      end
      else None
    in
    match fresh with
    | Some d -> d
    | None ->
        let prev_lo = first_driver_at_level.(prev) in
        let lo, hi =
          if prev_lo < hi_all && Util.Rng.bernoulli rng 0.7 then (prev_lo, hi_all)
          else (lo_all, hi_all)
        in
        (* Weighted choice among a few candidates: heavier drivers win,
           concentrating re-use on hub nets (long-tail fanout). *)
        let pick () = Util.Gvec.get drivers (Util.Rng.range rng lo hi) in
        let c1 = pick () and c2 = pick () and c3 = pick () in
        let best a b = if b.weight > a.weight then b else a in
        best (best c1 c2) c3
  in
  let net_of_driver drv =
    if drv.net >= 0 then drv.net
    else begin
      let nid = Builder.add_net b ~nname:(Printf.sprintf "n_%d_%s" drv.cell drv.out_pin) in
      Builder.connect_by_name b ~net:nid ~cell:drv.cell ~pin_name:drv.out_pin;
      drv.net <- nid;
      nid
    end
  in
  (* Wire up comb cell inputs. *)
  for i = 0 to p.num_comb - 1 do
    let cell = comb_cells.(i) in
    let lvl = level_of.(i) in
    (* Connect every input pin (a1, a2, ...) of the cell. *)
    let rec connect_input k =
      let pin_name = Printf.sprintf "a%d" k in
      match Builder.pin_of_cell b ~cell ~pin_name with
      | exception Invalid_argument _ -> ()
      | _pid ->
          let drv = sample_driver ~below:lvl in
          Builder.connect_by_name b ~net:(net_of_driver drv) ~cell ~pin_name;
          connect_input (k + 1)
    in
    connect_input 1
  done;
  (* FF D inputs consume deep signals; primary outputs likewise. *)
  Util.Gvec.iter
    (fun cell ->
      let drv = sample_driver ~below:(p.levels + 1) in
      Builder.connect_by_name b ~net:(net_of_driver drv) ~cell ~pin_name:"d")
    ff_d_pins;
  for i = 0 to p.num_outputs - 1 do
    let x, y = pad_pos (p.num_inputs + i) n_io in
    let cell = Builder.add_output_pad b ~cname:(Printf.sprintf "po%d" i) ~x ~y in
    let drv = sample_driver ~below:(p.levels + 1) in
    Builder.connect_by_name b ~net:(net_of_driver drv) ~cell ~pin_name:"p"
  done;
  (* Export dangling signals so every net has a sink. *)
  let extra = ref 0 in
  for i = 0 to Util.Gvec.length drivers - 1 do
    let drv = Util.Gvec.get drivers i in
    if drv.net >= 0 then ()
    else begin
      (* Driver never sampled: give it a sink through a spill pad. *)
      let x, y = pad_pos (Util.Rng.int rng (max 1 n_io)) n_io in
      let cell = Builder.add_output_pad b ~cname:(Printf.sprintf "spill%d" !extra) ~x ~y in
      incr extra;
      Builder.connect_by_name b ~net:(net_of_driver drv) ~cell ~pin_name:"p"
    end
  done;
  Builder.finish b

(** Calibrate the clock period so that roughly [1 - slack_quantile] of
    endpoints fail under a vanilla global placement — the operating regime
    of the paper's experiments. Mutates [d.clock_period]; restores the
    pre-calibration placement. *)
let calibrate_clock (d : Design.t) ~quantile =
  let saved = Design.snapshot d in
  let _ = Gp.Globalplace.run d in
  let timer = Sta.Timer.create d in
  Sta.Timer.update timer;
  let graph = Sta.Timer.graph timer in
  let arr = Sta.Timer.arrivals timer in
  (* Required offset per endpoint: period - gap(e) >= arr(e), i.e. the
     period that would exactly meet endpoint e is arr(e) + gap(e), with
     gap = setup for FF D pins and 0 for output pads. *)
  let needs =
    Array.to_list graph.Sta.Graph.endpoints
    |> List.filter_map (fun e ->
           if Float.is_finite arr.(e) then
             Some (arr.(e) +. (d.clock_period -. graph.Sta.Graph.end_required.(e)))
           else None)
  in
  let needs = Array.of_list needs in
  let period =
    if Array.length needs = 0 then 1000.0 else Util.Stats.percentile needs (100.0 *. quantile)
  in
  d.clock_period <- period;
  Design.restore d saved;
  period
