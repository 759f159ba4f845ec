(** The benchmark suite: eight designs mirroring the relative sizes and
    constraint tightness of the ICCAD 2015 superblue cases used in the
    paper (scaled to CPU-friendly sizes; see DESIGN.md for the
    substitution rationale). [scale] multiplies all cell counts. *)

type entry = { short : string; params : Genparams.t }

let scaled scale n = max 64 (int_of_float (float_of_int n *. scale))

let make_entry ~short ~seed ~num_comb ~num_ff ~levels ~slack_quantile ~num_macros ~scale =
  {
    short;
    params =
      {
        Genparams.default with
        name = short;
        seed;
        num_comb = scaled scale num_comb;
        num_ff = scaled scale num_ff;
        num_inputs = max 16 (scaled scale 96);
        num_outputs = max 16 (scaled scale 96);
        levels;
        num_macros;
        slack_quantile;
      };
  }

(** Relative sizes follow the contest suite ordering: superblue10 is the
    largest and hardest for TNS, superblue18 the smallest; superblue5 has
    the worst WNS (deep logic); superblue16 is shallow and fast. *)
let entries ?(scale = 1.0) () =
  [
    make_entry ~short:"sb1" ~seed:101 ~num_comb:2600 ~num_ff:380 ~levels:13 ~slack_quantile:0.89
      ~num_macros:2 ~scale;
    make_entry ~short:"sb3" ~seed:103 ~num_comb:2900 ~num_ff:420 ~levels:12 ~slack_quantile:0.90
      ~num_macros:3 ~scale;
    make_entry ~short:"sb4" ~seed:104 ~num_comb:2000 ~num_ff:330 ~levels:11 ~slack_quantile:0.86
      ~num_macros:2 ~scale;
    make_entry ~short:"sb5" ~seed:105 ~num_comb:3100 ~num_ff:400 ~levels:16 ~slack_quantile:0.88
      ~num_macros:3 ~scale;
    make_entry ~short:"sb7" ~seed:107 ~num_comb:3600 ~num_ff:520 ~levels:12 ~slack_quantile:0.90
      ~num_macros:2 ~scale;
    make_entry ~short:"sb10" ~seed:110 ~num_comb:4200 ~num_ff:600 ~levels:14 ~slack_quantile:0.85
      ~num_macros:4 ~scale;
    make_entry ~short:"sb16" ~seed:116 ~num_comb:2300 ~num_ff:360 ~levels:10 ~slack_quantile:0.88
      ~num_macros:1 ~scale;
    make_entry ~short:"sb18" ~seed:118 ~num_comb:1500 ~num_ff:260 ~levels:11 ~slack_quantile:0.88
      ~num_macros:1 ~scale;
  ]

let names ?scale () = List.map (fun e -> e.short) (entries ?scale ())

let find ?scale short =
  match List.find_opt (fun e -> e.short = short) (entries ?scale ()) with
  | Some e -> e
  | None ->
      Util.Errors.config_error ~what:"design"
        (Printf.sprintf "unknown suite design %s (known: %s)" short
           (String.concat " " (names ?scale ())))

(** Generate a suite design and calibrate its clock. The calibration GP
    run is deterministic, so the resulting design (netlist + period) is a
    pure function of [short] and [scale]. *)
let load ?scale ?(calibrate = true) short =
  let e = find ?scale short in
  let d = Generate.generate e.params in
  if calibrate then
    ignore (Generate.calibrate_clock d ~quantile:e.params.Genparams.slack_quantile);
  d

(* ------------------------------------------------------------------ *)
(* Scale-ladder designs: a single parameter point stretched to a target
   cell count for the 100k-1M SoA scale bench. The mix mirrors sb10
   (7:1 comb:FF, moderate depth); boundary IO grows with the die
   perimeter (sqrt of the cell count) rather than linearly. *)

let sized_params ?(seed = 4242) ~cells () =
  let cells = max 1_000 cells in
  (* comb + ff + io + macros ~= cells, with ff = comb/7. *)
  let io = max 64 (int_of_float (2.0 *. sqrt (float_of_int cells))) in
  let num_macros = 4 in
  let movable = max 512 (cells - (2 * io) - num_macros) in
  let num_ff = movable / 8 in
  let num_comb = movable - num_ff in
  {
    Genparams.default with
    name = Printf.sprintf "scale%dk" (cells / 1000);
    seed;
    num_comb;
    num_ff;
    num_inputs = io;
    num_outputs = io;
    levels = 14;
    num_macros;
    (* Hubs stay rare at scale so net degree stays bounded. *)
    fanout_hub_prob = 0.01;
  }

let load_sized ?seed ?(calibrate = false) ~cells () =
  let p = sized_params ?seed ~cells () in
  let d = Generate.generate p in
  if calibrate then ignore (Generate.calibrate_clock d ~quantile:p.Genparams.slack_quantile);
  d
