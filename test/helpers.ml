(* Shared builders for hand-crafted test circuits. *)

open Netlist

(* Run [f] with [Util.Parallel.default ()] at [n] domains, restoring the
   previous (possibly PARALLEL_DOMAINS-driven) count afterwards even if
   [f] raises. Only owners created inside [f] (with no explicit value)
   run at [n]: an owner keeps the value it was created with. *)
(* The value an owner created here gets: it follows [with_domains] and
   PARALLEL_DOMAINS. *)
let par () = Util.Parallel.default ()

(* A value of [n] domains whose hook records the chunk count of each
   named kernel's calls. [check_chunks seen kernel n] asserts the kernel
   ran, always with [n] chunks: a kernel that silently stayed on one
   domain fails instead of passing vacuously. *)
let counting_par n =
  let seen = Hashtbl.create 16 in
  let hook (s : Util.Parallel.stats) =
    let cs = Option.value ~default:[] (Hashtbl.find_opt seen s.kernel) in
    if not (List.mem s.chunks cs) then Hashtbl.replace seen s.kernel (s.chunks :: cs)
  in
  (Util.Parallel.create n ~instrument:hook, seen)

let check_chunks seen kernel n =
  Alcotest.(check (list int))
    (Printf.sprintf "%s ran with %d chunks" kernel n)
    [ n ]
    (Option.value ~default:[] (Hashtbl.find_opt seen kernel))

let with_domains n f =
  let saved = Util.Parallel.domains (Util.Parallel.default ()) in
  Util.Parallel.set_num_domains n;
  Fun.protect ~finally:(fun () -> Util.Parallel.set_num_domains saved) f

(* Run [f] on a fresh temp directory, removed with its files afterwards. *)
let with_temp_dir f =
  let dir = Filename.temp_dir "etdp_test" "" in
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun e -> Sys.remove (Filename.concat dir e)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () -> f dir)

(* Save [d] through Formats.Auto as [file] (the extension picks the
   format) in a temp directory and run [f] on its path. *)
let with_saved ?(file = "d.aux") d f =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir file in
      Formats.Auto.save path d;
      f path)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* Byte dump of a design: its Bookshelf bundle, file by file. *)
let bundle_bytes d =
  with_saved d (fun path ->
      let dir = Filename.dirname path in
      Sys.readdir dir |> Array.to_list |> List.sort compare
      |> List.map (fun e -> e ^ "\n" ^ read_file (Filename.concat dir e))
      |> String.concat "\n")

(* Plan-engine 2D DCT-II (or, with [inverse], DCT-III) of a row-major
   grid into a fresh array; [~rows:1] gives the 1D transform. *)
let plan_dct ?(par = par ()) ?(inverse = false) x ~rows ~cols =
  let p = Numerics.Plan.create ~par ~rows ~cols in
  let dst = Array.make (rows * cols) 0.0 in
  (if inverse then Numerics.Plan.idct2_2d else Numerics.Plan.dct2_2d) p ~src:x ~dst;
  dst

let die100 = Geom.Rect.make ~xl:0.0 ~yl:0.0 ~xh:100.0 ~yh:100.0

let inv = Libcell.find_in_library "INV_X1"

let nand2 = Libcell.find_in_library "NAND2_X1"

let fresh_builder ?(clock_period = 500.0) ?(r = 0.1) ?(c = 0.2) () =
  Builder.create ~name:"test" ~die:die100 ~row_height:1.0 ~clock_period ~r_per_unit:r
    ~c_per_unit:c

(* pi -> inv(u1) -> ff -> inv(u2) -> po, cells on a horizontal line. *)
let chain_design () =
  let b = fresh_builder () in
  let pi = Builder.add_input_pad b ~cname:"pi" ~x:0.0 ~y:50.0 in
  let u1 = Builder.add_logic b ~cname:"u1" ~lib:inv ~x:30.0 ~y:50.0 () in
  let ff = Builder.add_logic b ~cname:"ff" ~lib:Libcell.dff ~x:60.0 ~y:50.0 () in
  let u2 = Builder.add_logic b ~cname:"u2" ~lib:inv ~x:80.0 ~y:50.0 () in
  let po = Builder.add_output_pad b ~cname:"po" ~x:100.0 ~y:50.0 in
  let wire src_cell src_pin dst_cell dst_pin name =
    let n = Builder.add_net b ~nname:name in
    Builder.connect_by_name b ~net:n ~cell:src_cell ~pin_name:src_pin;
    Builder.connect_by_name b ~net:n ~cell:dst_cell ~pin_name:dst_pin
  in
  wire pi "p" u1 "a1" "n1";
  wire u1 "o" ff "d" "n2";
  wire ff "q" u2 "a1" "n3";
  wire u2 "o" po "p" "n4";
  Builder.finish b

(* Reconvergent diamond: pi feeds two parallel nand2 stages that merge.
       pi -> u_a -> u_m -> po
       pi -> u_b ---^
   u_a sits close to the merge, u_b far away: the u_b branch is the
   critical (worse-arrival) one. *)
let diamond_design () =
  let b = fresh_builder () in
  let pi = Builder.add_input_pad b ~cname:"pi" ~x:0.0 ~y:50.0 in
  let ua = Builder.add_logic b ~cname:"ua" ~lib:inv ~x:40.0 ~y:52.0 () in
  let ub = Builder.add_logic b ~cname:"ub" ~lib:inv ~x:40.0 ~y:95.0 () in
  let um = Builder.add_logic b ~cname:"um" ~lib:nand2 ~x:60.0 ~y:50.0 () in
  let po = Builder.add_output_pad b ~cname:"po" ~x:100.0 ~y:50.0 in
  let n0 = Builder.add_net b ~nname:"n0" in
  Builder.connect_by_name b ~net:n0 ~cell:pi ~pin_name:"p";
  Builder.connect_by_name b ~net:n0 ~cell:ua ~pin_name:"a1";
  Builder.connect_by_name b ~net:n0 ~cell:ub ~pin_name:"a1";
  let na = Builder.add_net b ~nname:"na" in
  Builder.connect_by_name b ~net:na ~cell:ua ~pin_name:"o";
  Builder.connect_by_name b ~net:na ~cell:um ~pin_name:"a1";
  let nb = Builder.add_net b ~nname:"nb" in
  Builder.connect_by_name b ~net:nb ~cell:ub ~pin_name:"o";
  Builder.connect_by_name b ~net:nb ~cell:um ~pin_name:"a2";
  let no = Builder.add_net b ~nname:"no" in
  Builder.connect_by_name b ~net:no ~cell:um ~pin_name:"o";
  Builder.connect_by_name b ~net:no ~cell:po ~pin_name:"p";
  Builder.finish b

(* A small but realistic generated design; cached per (scale-independent)
   parameters so suites share the cost. *)
let small_gen_params =
  {
    Workloads.Genparams.default with
    name = "tiny";
    seed = 99;
    num_comb = 220;
    num_ff = 40;
    num_inputs = 12;
    num_outputs = 12;
    levels = 6;
    num_macros = 1;
  }

let small_generated = lazy (Workloads.Generate.generate small_gen_params)

(* A calibrated copy for flow tests (own instance: flows mutate state). *)
let small_calibrated () =
  let d = Workloads.Generate.generate small_gen_params in
  ignore (Workloads.Generate.calibrate_clock d ~quantile:0.9);
  d

(* A JSON writer that formats every float with printf: the reference
   the library's encoder must match byte for byte. *)
module Json_ref = struct
  let float_repr f =
    if not (Float.is_finite f) then "null"
    else begin
      let s = Printf.sprintf "%.12g" f in
      if float_of_string s = f then s else Printf.sprintf "%.17g" f
    end

  let escape_string buf s =
    Buffer.add_char buf '"';
    String.iter
      (function
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"'

  let rec write buf = function
    | Obs.Json.Null -> Buffer.add_string buf "null"
    | Obs.Json.Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Obs.Json.Int i -> Buffer.add_string buf (string_of_int i)
    | Obs.Json.Float f -> Buffer.add_string buf (float_repr f)
    | Obs.Json.String s -> escape_string buf s
    | Obs.Json.List xs ->
        Buffer.add_char buf '[';
        List.iteri
          (fun i x ->
            if i > 0 then Buffer.add_char buf ',';
            write buf x)
          xs;
        Buffer.add_char buf ']'
    | Obs.Json.Obj kvs ->
        Buffer.add_char buf '{';
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_char buf ',';
            escape_string buf k;
            Buffer.add_char buf ':';
            write buf v)
          kvs;
        Buffer.add_char buf '}'

  let to_string v =
    let buf = Buffer.create 256 in
    write buf v;
    Buffer.contents buf
end
