(** Golden-regression harness (see the interface). *)

type source = Suite of { short : string; scale : float } | File of { stem : string; path : string }

type entry = { source : source; method_ : Tdp.Flow.method_ }

(* File entry first: a missing fixture fails before any run. *)
let default_entries =
  let eff = Tdp.Flow.Efficient Tdp.Config.default in
  let suite short method_ = { source = Suite { short; scale = 0.08 }; method_ } in
  let fixture = "test/fixtures/formats/golden_small/golden_small.aux" in
  [
    { source = File { stem = "bsgolden"; path = fixture }; method_ = eff };
    suite "sb1" Tdp.Flow.Vanilla;
    suite "sb1" eff;
    suite "sb3" Tdp.Flow.Vanilla;
    suite "sb3" eff;
  ]

let design_name e = match e.source with Suite { short; _ } -> short | File { stem; _ } -> stem

let method_slug m =
  String.map
    (fun ch -> match ch with 'A' .. 'Z' -> Char.lowercase_ascii ch | '/' | ' ' -> '-' | c -> c)
    (Tdp.Flow.method_name m)

let entry_name e = Printf.sprintf "%s-%s" (design_name e) (method_slug e.method_)

let snapshot e =
  let d, scale =
    match e.source with
    | Suite { short; scale } -> (Workloads.Suite.load ~scale short, scale)
    | File { path; _ } -> (Formats.Auto.load path, 1.0)
  in
  let r = Tdp.Flow.run ~obs:Obs.Ctx.null e.method_ d in
  Obs.Json.Obj
    [
      ("design", Obs.Json.String (design_name e));
      ("scale", Obs.Json.Float scale);
      ("method", Obs.Json.String (Tdp.Flow.method_name e.method_));
      ("metrics", Tdp.Flow.metrics_to_json r.Tdp.Flow.metrics);
      ("metrics_gp", Tdp.Flow.metrics_to_json r.Tdp.Flow.metrics_gp);
      ("curve_points", Obs.Json.Int (List.length r.Tdp.Flow.curve));
      ("extraction_rounds", Obs.Json.Int (List.length r.Tdp.Flow.extraction_rounds));
    ]

let float_rtol = 1e-6

(* Per-field policy: ints, bools, strings exact; floats to [float_rtol];
   objects must carry identical key sets; lists identical lengths. *)
let rec compare_json ~path ~(golden : Obs.Json.t) ~(got : Obs.Json.t) =
  match (golden, got) with
  | Obs.Json.Null, Obs.Json.Null -> []
  | Obs.Json.Bool a, Obs.Json.Bool b when a = b -> []
  | Obs.Json.Int a, Obs.Json.Int b when a = b -> []
  | Obs.Json.String a, Obs.Json.String b when a = b -> []
  | Obs.Json.Float a, Obs.Json.Float b when Compare.float_eq ~rtol:float_rtol ~atol:1e-12 a b ->
      []
  (* Integral floats print without a decimal point and reparse as Int:
     a golden with tns = 0 must still match a fresh Float 0. *)
  | Obs.Json.Int a, Obs.Json.Float b
    when Compare.float_eq ~rtol:float_rtol ~atol:1e-12 (float_of_int a) b ->
      []
  | Obs.Json.Float a, Obs.Json.Int b
    when Compare.float_eq ~rtol:float_rtol ~atol:1e-12 a (float_of_int b) ->
      []
  | Obs.Json.List a, Obs.Json.List b ->
      if List.length a <> List.length b then
        [
          Printf.sprintf "%s: list length %d, golden %d" path (List.length b) (List.length a);
        ]
      else
        List.concat
          (List.mapi
             (fun i (ga, gb) -> compare_json ~path:(Printf.sprintf "%s[%d]" path i) ~golden:ga ~got:gb)
             (List.combine a b))
  | Obs.Json.Obj a, Obs.Json.Obj b ->
      let keys l = List.sort compare (List.map fst l) in
      if keys a <> keys b then [ Printf.sprintf "%s: field sets differ" path ]
      else
        List.concat_map
          (fun (k, ga) ->
            let gb = List.assoc k b in
            compare_json ~path:(path ^ "." ^ k) ~golden:ga ~got:gb)
          a
  | _ ->
      [
        Printf.sprintf "%s: got %s, golden %s" path (Obs.Json.to_string got)
          (Obs.Json.to_string golden);
      ]

let golden_file dir e = Filename.concat dir (entry_name e ^ ".json")

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let check ~dir entries =
  let msgs =
    List.concat_map
      (fun e ->
        let file = golden_file dir e in
        if not (Sys.file_exists file) then
          [ Printf.sprintf "%s: golden missing (run --regen)" file ]
        else
          match Obs.Json.parse (read_file file) with
          | Error m -> [ Printf.sprintf "%s: unparseable golden: %s" file m ]
          | Ok golden -> compare_json ~path:(entry_name e) ~golden ~got:(snapshot e))
      entries
  in
  if msgs = [] then Ok () else Error msgs

let regen ~dir entries =
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
  List.map
    (fun e ->
      let file = golden_file dir e in
      let oc = open_out file in
      output_string oc (Obs.Json.to_string (snapshot e));
      output_string oc "\n";
      close_out oc;
      file)
    entries
