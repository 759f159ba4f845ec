(* Format gates: bit-exact round trips through Bookshelf and LEF/DEF for
   every suite design, the committed torture fixtures (each must fail
   with Scan.Parse_error at its recorded line), the committed golden
   Bookshelf design, the serialize/mutate/reparse fuzz battery and the
   metrics-identity contract (a reparsed design runs the flow to the
   same numbers). *)

open Netlist

let scratch =
  lazy
    (let d =
       Filename.concat (Filename.get_temp_dir_name ())
         (Printf.sprintf "etdp_fmt_test_%d" (Unix.getpid ()))
     in
     (try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
     d)

let bits = Int64.bits_of_float

(* Bit-exact structural equality; fails with the first differing field. *)
let check_design_eq ~ctx (a : Design.t) (b : Design.t) =
  let fail fmt = Alcotest.failf ("%s: " ^^ fmt) ctx in
  let eqf what ia fa fb = if bits fa <> bits fb then fail "%s[%d]: %.17g <> %.17g" what ia fa fb in
  if a.name <> b.name then fail "name %S <> %S" a.name b.name;
  if Design.num_cells a <> Design.num_cells b then
    fail "cells %d <> %d" (Design.num_cells a) (Design.num_cells b);
  if Design.num_pins a <> Design.num_pins b then
    fail "pins %d <> %d" (Design.num_pins a) (Design.num_pins b);
  if Design.num_nets a <> Design.num_nets b then
    fail "nets %d <> %d" (Design.num_nets a) (Design.num_nets b);
  List.iter
    (fun (what, fa, fb) -> eqf what (-1) fa fb)
    [
      ("die.xl", a.die.Geom.Rect.xl, b.die.Geom.Rect.xl);
      ("die.yl", a.die.Geom.Rect.yl, b.die.Geom.Rect.yl);
      ("die.xh", a.die.Geom.Rect.xh, b.die.Geom.Rect.xh);
      ("die.yh", a.die.Geom.Rect.yh, b.die.Geom.Rect.yh);
      ("row_height", a.row_height, b.row_height);
      ("clock_period", a.clock_period, b.clock_period);
      ("input_delay", a.input_delay, b.input_delay);
      ("output_delay", a.output_delay, b.output_delay);
      ("r_per_unit", a.r_per_unit, b.r_per_unit);
      ("c_per_unit", a.c_per_unit, b.c_per_unit);
    ];
  for i = 0 to Design.num_cells a - 1 do
    eqf "x" i a.x.{i} b.x.{i};
    eqf "y" i a.y.{i} b.y.{i};
    eqf "w" i a.w.{i} b.w.{i};
    eqf "h" i a.h.{i} b.h.{i};
    if Design.is_movable a i <> Design.is_movable b i then fail "movable[%d] differs" i;
    if Design.kind a i <> Design.kind b i then fail "kind[%d] differs" i;
    if Design.cell_name a i <> Design.cell_name b i then
      fail "cell_name[%d]: %S <> %S" i (Design.cell_name a i) (Design.cell_name b i)
  done;
  if a.cell_pin_off <> b.cell_pin_off then fail "cell_pin_off differs";
  if a.cell_pin_ids <> b.cell_pin_ids then fail "cell_pin_ids differs";
  for p = 0 to Design.num_pins a - 1 do
    if a.pin_owner.(p) <> b.pin_owner.(p) then fail "pin_owner[%d] differs" p;
    if a.pin_net.(p) <> b.pin_net.(p) then fail "pin_net[%d] differs" p;
    if Design.pin_dir a p <> Design.pin_dir b p then fail "pin_dir[%d] differs" p;
    eqf "pin_off_x" p a.pin_off_x.{p} b.pin_off_x.{p};
    eqf "pin_off_y" p a.pin_off_y.{p} b.pin_off_y.{p};
    eqf "pin_cap" p a.pin_cap.{p} b.pin_cap.{p}
  done;
  (* driver-first CSR adjacency, id for id *)
  if a.net_driver <> b.net_driver then fail "net_driver differs";
  if a.net_pin_off <> b.net_pin_off then fail "net_pin_off differs";
  if a.net_pin_ids <> b.net_pin_ids then fail "net_pin_ids differs";
  for n = 0 to Design.num_nets a - 1 do
    eqf "net_weight" n a.net_weight.{n} b.net_weight.{n};
    if Design.net_name a n <> Design.net_name b n then fail "net_name[%d] differs" n
  done;
  match Design.validate b with
  | [] -> ()
  | e :: _ -> fail "reparsed design fails validate: %s" e

let suite_roundtrip_scale = 0.04

let roundtrip_one ~fmt short =
  let dir = Lazy.force scratch in
  let d = Workloads.Suite.load ~scale:suite_roundtrip_scale ~calibrate:false short in
  let d' =
    match fmt with
    | `Bookshelf ->
        let aux = Formats.Bookshelf.write ~dir ~stem:("rt_" ^ short) d in
        Formats.Bookshelf.read_aux aux
    | `Lefdef ->
        let lef_path = Filename.concat dir ("rt_" ^ short ^ ".lef") in
        let def_path = Filename.concat dir ("rt_" ^ short ^ ".def") in
        Formats.Lefdef.write ~lef_path ~def_path d;
        Formats.Lefdef.read_def ~lef:(Formats.Lefdef.read_lef lef_path) def_path
  in
  check_design_eq ~ctx:(Printf.sprintf "%s/%s" short (match fmt with `Bookshelf -> "bs" | `Lefdef -> "def")) d d'

let roundtrip_all fmt () =
  List.iter
    (fun domains ->
      Helpers.with_domains domains (fun () ->
          List.iter (roundtrip_one ~fmt) (Workloads.Suite.names ())))
    [ 1; 4 ]

(* write_pl emits enough precision that apply_pl restores every movable
   coordinate bit for bit after the placement has been clobbered. *)
let pl_overlay_roundtrip () =
  let d = Workloads.Suite.load ~scale:suite_roundtrip_scale ~calibrate:false "sb1" in
  let pl = Filename.concat (Lazy.force scratch) "rt_overlay.pl" in
  Formats.Bookshelf.write_pl pl d;
  let n = Design.num_cells d in
  let sx = Array.init n (fun i -> d.x.{i}) and sy = Array.init n (fun i -> d.y.{i}) in
  for i = 0 to n - 1 do
    if Design.is_movable d i then begin
      d.x.{i} <- d.die.Geom.Rect.xl;
      d.y.{i} <- d.die.Geom.Rect.yl
    end
  done;
  Formats.Bookshelf.apply_pl d pl;
  for i = 0 to n - 1 do
    if bits d.x.{i} <> bits sx.(i) || bits d.y.{i} <> bits sy.(i) then
      Alcotest.failf "apply_pl: cell %d moved to (%.17g, %.17g), expected (%.17g, %.17g)" i
        d.x.{i} d.y.{i} sx.(i) sy.(i)
  done

(* --- torture fixtures: every committed malformed file must raise
   Scan.Parse_error at exactly the recorded line with the recorded
   message fragment. *)

(* dune runtest materializes fixtures/ beside the executable; a manual
   run from the repo root finds the source tree instead. *)
let fixture_path rel =
  if Sys.file_exists rel then rel
  else
    let alt = Filename.concat "test" rel in
    if Sys.file_exists alt then alt
    else Alcotest.failf "fixture %s not found (run from the repo root or via dune runtest)" rel

let bad_dir = lazy (fixture_path "fixtures/formats/bad")

let read_expect path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let tbl = Hashtbl.create 4 in
      (try
         while true do
           let line = input_line ic in
           match String.index_opt line '=' with
           | Some i ->
               Hashtbl.replace tbl
                 (String.sub line 0 i)
                 (String.sub line (i + 1) (String.length line - i - 1))
           | None -> ()
         done
       with End_of_file -> ());
      let get k =
        match Hashtbl.find_opt tbl k with
        | Some v -> v
        | None -> Alcotest.failf "%s: missing %s= field" path k
      in
      (get "entry", int_of_string (get "line"), get "msg"))

let torture_cases () =
  let bad_dir = Lazy.force bad_dir in
  let expects =
    Sys.readdir bad_dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".expect")
    |> List.sort compare
  in
  if List.length expects < 20 then
    Alcotest.failf "only %d torture fixtures under %s" (List.length expects) bad_dir;
  List.iter
    (fun exp_file ->
      let entry, want_line, want_msg = read_expect (Filename.concat bad_dir exp_file) in
      let path = Filename.concat bad_dir entry in
      let parse () =
        match String.lowercase_ascii (Filename.extension entry) with
        | ".aux" -> ignore (Formats.Bookshelf.read_aux path)
        | ".def" -> ignore (Formats.Lefdef.read_def path)
        | ".lef" -> ignore (Formats.Lefdef.read_lef path)
        | ext -> Alcotest.failf "%s: unknown torture entry extension %S" exp_file ext
      in
      (* Memory follows the file, not its header: every fixture is a few
         hundred bytes, whatever counts it declares. *)
      let a0 = Gc.allocated_bytes () in
      let check_alloc () =
        let mib = (Gc.allocated_bytes () -. a0) /. 1048576.0 in
        if mib >= 64.0 then Alcotest.failf "%s: allocated %.0f MiB before failing" entry mib
      in
      match parse () with
      | () -> Alcotest.failf "%s: parsed cleanly, expected Parse_error" entry
      | exception Formats.Scan.Parse_error (line, msg) ->
          check_alloc ();
          if line <> want_line then
            Alcotest.failf "%s: Parse_error at line %d (%s), expected line %d" entry line msg
              want_line;
          if not (Helpers.contains ~sub:want_msg msg) then
            Alcotest.failf "%s: message %S lacks %S" entry msg want_msg
      | exception e ->
          Alcotest.failf "%s: raised %s, expected Parse_error" entry (Printexc.to_string e))
    expects

(* --- ingest cost: a generated ~20k-cell bundle loads with at most 100
   minor words per cell (names, boxed number results and net names;
   every table is sized from the headers and never passes through the
   minor heap). *)

let bookshelf_load_allocation () =
  Helpers.with_temp_dir (fun dir ->
      let d = Workloads.Suite.load_sized ~calibrate:false ~cells:20_000 () in
      let aux = Formats.Bookshelf.write ~dir ~stem:"alloc" d in
      let cells = float_of_int (Design.num_cells d) in
      Gc.compact ();
      let w0 = Gc.minor_words () in
      let d' = Formats.Auto.load aux in
      let per_cell = (Gc.minor_words () -. w0) /. cells in
      Alcotest.(check int) "cells" (Design.num_cells d) (Design.num_cells d');
      if per_cell > 100.0 then
        Alcotest.failf "loading allocated %.1f minor words per cell (> 100)" per_cell)

(* --- numeric tokens: whatever path Scan takes (exact fast path, memo,
   float_of_string), a token parses to float_of_string's bits. *)

let numeric_token_bits =
  let edge =
    [ "0"; "-0"; "0.0"; "-0.0"; "+0"; "1."; ".5"; "-.5"; "1e5"; "1E+05"; "2.5e-3";
      "9007199254740992"; "9007199254740993"; "-9007199254740993"; "123456789012345678";
      "1e22"; "1e23"; "0.1e-22"; "1e-23"; "4.9406564584124654e-324";
      "2.2250738585072009e-308"; "2.2250738585072014e-308"; "1.7976931348623157e308";
      "0.16666666666666669"; "-0.16666666666666669"; "007"; "1_000"; "0x1p3" ]
  in
  QCheck.Test.make ~count:300 ~name:"numeric tokens parse to float_of_string's bits"
    QCheck.(list_of_size Gen.(1 -- 40) int64)
    (fun raws ->
      let finite = List.filter Float.is_finite (List.map Int64.float_of_bits raws) in
      let printed =
        List.concat_map
          (fun f -> [ Printf.sprintf "%.17g" f; Printf.sprintf "%.12g" f; Printf.sprintf "%g" f ])
          finite
      in
      (* Short decimals, as coordinates and pin offsets usually print. *)
      let short =
        List.map
          (fun r -> Printf.sprintf "%.2f" (Int64.to_float (Int64.rem r 100_000_000L) /. 100.0))
          raws
      in
      (* Up to 16 digits around a point: at most 17 bytes, straddling
         the 2^53 limit of exact digit strings. *)
      let long =
        List.map
          (fun r ->
            let r = Int64.logand r Int64.max_int in
            let ds = Int64.to_string (Int64.rem r 10_000_000_000_000_000L) in
            let k = Int64.to_int (Int64.rem r 7L) mod (String.length ds + 1) in
            String.sub ds 0 k ^ "." ^ String.sub ds k (String.length ds - k))
          raws
      in
      let printed = printed @ short @ long in
      (* Every token twice, so the second sighting can come from the memo. *)
      let toks = edge @ printed @ List.rev printed @ edge in
      let sc = Formats.Scan.of_string ~name:"nums" (String.concat "\n" toks) in
      List.for_all
        (fun tok ->
          Formats.Scan.next_line sc
          && Formats.Scan.next_tok sc
          && Formats.Scan.tok sc = tok
          && Int64.equal
               (Int64.bits_of_float (Formats.Scan.tok_float sc))
               (Int64.bits_of_float (float_of_string tok)))
        toks)

(* --- the committed golden Bookshelf design *)

let golden_fixture = lazy (fixture_path "fixtures/formats/golden_small/golden_small.aux")

let golden_small_parses () =
  let d = Formats.Bookshelf.read_aux (Lazy.force golden_fixture) in
  Alcotest.(check string) "name" "golden_small" d.name;
  Alcotest.(check int) "cells" 8 (Design.num_cells d);
  Alcotest.(check int) "pins" 13 (Design.num_pins d);
  Alcotest.(check int) "nets" 6 (Design.num_nets d);
  Alcotest.(check (float 0.0)) "clock" 480.0 d.clock_period;
  Alcotest.(check (float 0.0)) "input_delay" 10.0 d.input_delay;
  Alcotest.(check (float 0.0)) "output_delay" 15.0 d.output_delay;
  Alcotest.(check (float 0.0)) "r_per_unit" 0.06 d.r_per_unit;
  Alcotest.(check (float 0.0)) "c_per_unit" 0.5 d.c_per_unit;
  Alcotest.(check (float 0.0)) "die.xh" 10.0 d.die.Geom.Rect.xh;
  Alcotest.(check (float 0.0)) "die.yh" 8.0 d.die.Geom.Rect.yh;
  Alcotest.(check (float 0.0)) "row_height" 1.0 d.row_height;
  let idx name =
    let rec go i =
      if i >= Design.num_cells d then Alcotest.failf "no cell %S" name
      else if Design.cell_name d i = name then i
      else go (i + 1)
    in
    go 0
  in
  Alcotest.(check bool) "g1 movable" true (Design.is_movable d (idx "g1"));
  Alcotest.(check bool) "b1 fixed" false (Design.is_movable d (idx "b1"));
  (match Design.kind d (idx "i1") with
  | Design.Input_pad -> ()
  | _ -> Alcotest.fail "i1 should infer as an input pad");
  (match Design.kind d (idx "o1") with
  | Design.Output_pad -> ()
  | _ -> Alcotest.fail "o1 should infer as an output pad");
  Alcotest.(check (list string)) "validate clean" [] (Design.validate d)

(* --- serialize / mutate one byte / reparse battery *)

let fuzz_params =
  {
    Workloads.Genparams.default with
    name = "fmtfuzz";
    seed = 7;
    num_comb = 60;
    num_ff = 10;
    num_inputs = 6;
    num_outputs = 6;
    levels = 4;
    num_macros = 1;
  }

let mutate_reparse_battery () =
  List.iter
    (fun (p : Oracle.Fuzz.prop) ->
      match Oracle.Fuzz.check_params p fuzz_params with
      | Ok () -> ()
      | Error m -> Alcotest.failf "%s: %s" p.Oracle.Fuzz.name m)
    Oracle.Fuzz.format_props

(* --- metrics identity: a design written to LEF/DEF and reparsed runs
   the whole flow to bit-identical quality metrics. *)

let metrics_identity () =
  Helpers.with_domains 1 (fun () ->
      let dir = Lazy.force scratch in
      let d = Workloads.Suite.load ~scale:0.05 "sb1" in
      let lef_path = Filename.concat dir "mi.lef" and def_path = Filename.concat dir "mi.def" in
      Formats.Lefdef.write ~lef_path ~def_path d;
      let d' = Formats.Lefdef.read_def ~lef:(Formats.Lefdef.read_lef lef_path) def_path in
      let run dd = Tdp.Flow.run ~obs:Obs.Ctx.null (Tdp.Flow.Efficient Tdp.Config.default) dd in
      let r = run d and r' = run d' in
      if r.Tdp.Flow.metrics <> r'.Tdp.Flow.metrics then
        Alcotest.failf "legalized metrics differ: %s vs %s"
          (Obs.Json.to_string (Tdp.Flow.metrics_to_json r.Tdp.Flow.metrics))
          (Obs.Json.to_string (Tdp.Flow.metrics_to_json r'.Tdp.Flow.metrics));
      if r.Tdp.Flow.metrics_gp <> r'.Tdp.Flow.metrics_gp then
        Alcotest.fail "global-placement metrics differ";
      Alcotest.(check int) "curve length" (List.length r.Tdp.Flow.curve)
        (List.length r'.Tdp.Flow.curve);
      Alcotest.(check int) "extraction rounds"
        (List.length r.Tdp.Flow.extraction_rounds)
        (List.length r'.Tdp.Flow.extraction_rounds))

(* A committed golden placement: `place [args] --domains 1` must write
   goldens/[name] byte for byte (the CI golden job runs the same command
   and `cmp`). *)
let def_byte_identical name args () =
  let golden =
    List.find_opt Sys.file_exists [ "../goldens/" ^ name; "goldens/" ^ name ]
  in
  let golden =
    match golden with Some p -> p | None -> Alcotest.failf "goldens/%s not found" name
  in
  let place =
    Filename.concat
      (Filename.dirname Sys.executable_name)
      (Filename.concat Filename.parent_dir_name (Filename.concat "bin" "place.exe"))
  in
  Helpers.with_temp_dir (fun dir ->
      let out = Filename.concat dir name in
      let rc =
        Sys.command
          (Printf.sprintf "%s %s --domains 1 --out %s >/dev/null 2>&1" place (args ()) out)
      in
      Alcotest.(check int) "place exit code" 0 rc;
      if Helpers.read_file out <> Helpers.read_file golden then
        Alcotest.failf "%s differs from %s" out golden)

(* The Bookshelf fixture under the efficient flow. *)
let golden_def_byte_identical =
  def_byte_identical "bsgolden-efficient.def" (fun () ->
      Printf.sprintf "--design-file %s --flow efficient" (Lazy.force golden_fixture))

(* A generated 584-cell design under the vanilla flow: large enough that
   detailed placement accepts moves, so the DEF pins its output too. *)
let sb1_vanilla_def_byte_identical =
  def_byte_identical "sb1-vanilla.def" (fun () -> "-d sb1 --scale 0.15 --flow vanilla")

let suite =
  [
    Alcotest.test_case "bookshelf roundtrip, all suite designs (1+4 domains)" `Slow
      (roundtrip_all `Bookshelf);
    Alcotest.test_case "lef/def roundtrip, all suite designs (1+4 domains)" `Slow
      (roundtrip_all `Lefdef);
    Alcotest.test_case "pl overlay restores placement bit-exact" `Quick pl_overlay_roundtrip;
    Alcotest.test_case "torture fixtures fail at the recorded line" `Quick torture_cases;
    Alcotest.test_case "bookshelf load allocation" `Quick bookshelf_load_allocation;
    QCheck_alcotest.to_alcotest numeric_token_bits;
    Alcotest.test_case "golden_small fixture parses" `Quick golden_small_parses;
    Alcotest.test_case "serialize/mutate/reparse battery" `Slow mutate_reparse_battery;
    Alcotest.test_case "reparsed design reproduces flow metrics" `Slow metrics_identity;
    Alcotest.test_case "golden placement DEF byte-identical" `Quick golden_def_byte_identical;
    Alcotest.test_case "sb1 vanilla placement DEF byte-identical" `Quick
      sb1_vanilla_def_byte_identical;
  ]
