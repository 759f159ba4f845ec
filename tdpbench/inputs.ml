(* Seeded input generation, run as its own process before any timed run.

   Each workload directory gets a [manifest.txt] (one "name aux eco" line
   per design, paths relative to the working directory) and the files it
   names, so the timed processes only read files.

   The netlists are the program's own suite and sized designs, the same
   for every seed: offsetting their generator seeds made TNS/WNS spread
   by up to 40% between seeds, wider than any bound the benchmark may
   set. The workload seed drives the request streams instead: the ECO
   deltas and the daemon's ECO script. The flow's own [?seed] is never
   touched. *)

type size = Full | Tiny

let size_of_string = function
  | "full" -> Some Full
  | "tiny" -> Some Tiny
  | _ -> None

let suite_scale = function Full -> 0.5 | Tiny -> 0.1

let sized_cells = function Full -> 50_000 | Tiny -> 5_000

let svc_scale = function Full -> 1.0 | Tiny -> 0.2

(* Replace requests in the ECO script; the client wraps around. *)
let script_len = 64

let manifest dir = Filename.concat dir "manifest.txt"

let script dir = Filename.concat dir "script.jsonl"

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let read_lines path =
  String.split_on_char '\n' (read_file path) |> List.filter (fun l -> String.trim l <> "")

type entry = { name : string; aux : string; eco : string }

let read_manifest dir =
  List.map
    (fun l ->
      match String.split_on_char ' ' l with
      | [ name; aux; eco ] -> { name; aux; eco }
      | _ -> failwith ("bad manifest line: " ^ l))
    (read_lines (manifest dir))

(* A 1% random-move delta, the daemon's small-ECO regime. *)
let random_delta ~seed d = Service.Eco.random ~seed ~frac:0.01 d

let save_design dir name d ~delta =
  let aux = Filename.concat dir (name ^ ".aux") in
  let eco = Filename.concat dir (name ^ ".eco.json") in
  Formats.Auto.save aux d;
  write_file eco (Obs.Json.to_string (Service.Eco.to_json delta));
  { name; aux; eco }

let write_manifest dir entries =
  write_file (manifest dir)
    (String.concat "" (List.map (fun e -> Printf.sprintf "%s %s %s\n" e.name e.aux e.eco) entries))

(* The ECO script: mostly 1% move deltas, so the warm timer re-times
   incrementally. In every 16 requests, one retargets the clock by up to
   2% and the next restores it; one retunes the wire parasitics by up to
   3% and the next restores them. So all three [State.note_eco] branches
   run, and the session never drifts far from the design's constraints. *)
let replace_line ~design ~seed i (d : Netlist.Design.t) =
  let rng = Util.Rng.create ((seed * 7919) + i) in
  let wire_rc r c = [ Service.Eco.Set_wire_rc { r; c } ] in
  let delta =
    match i mod 16 with
    | 5 -> [ Service.Eco.Set_clock (d.clock_period *. Util.Rng.float_range rng 0.98 1.02) ]
    | 6 -> [ Service.Eco.Set_clock d.clock_period ]
    | 13 ->
        wire_rc
          (d.r_per_unit *. Util.Rng.float_range rng 0.97 1.03)
          (d.c_per_unit *. Util.Rng.float_range rng 0.97 1.03)
    | 14 -> wire_rc d.r_per_unit d.c_per_unit
    | _ -> random_delta ~seed:((seed * 7919) + i) d
  in
  Obs.Json.to_string
    (Obs.Json.Obj
       [
         ("id", Obs.Json.String (Printf.sprintf "eco%d" i));
         ("op", Obs.Json.String "replace");
         ( "params",
           Obs.Json.Obj
             [
               ("design", Obs.Json.String design);
               ("flow", Obs.Json.String "efficient");
               ("delta", Service.Eco.to_json delta);
             ] );
       ])

let generate ~size ~workload ~seed ~dir =
  match workload with
  | "tdp-suite" ->
      let scale = suite_scale size in
      Workloads.Suite.names ~scale ()
      |> List.mapi (fun i short ->
             let d = Workloads.Suite.load ~scale short in
             save_design dir short d ~delta:(random_delta ~seed:((seed * 101) + i) d))
      |> write_manifest dir
  | "gp-50k" ->
      (* Calibrated so the design has failing endpoints: TNS and WNS are
         never 0, and the timing queries have paths to report. *)
      let d =
        Workloads.Suite.load_sized ~calibrate:true ~cells:(sized_cells size) ()
      in
      write_manifest dir [ save_design dir "gp50k" d ~delta:(random_delta ~seed d) ]
  | "svc-eco" ->
      (* Half the endpoints fail under a vanilla placement (the suite's
         sb1 clock lets Efficient-TDP close timing, so TNS would read 0):
         every replace has violations to repair, and TNS per cycle stays
         within about 10% of its median. *)
      let e = Workloads.Suite.find ~scale:(svc_scale size) "sb1" in
      let d = Workloads.Generate.generate e.params in
      ignore (Workloads.Generate.calibrate_clock d ~quantile:0.5);
      write_manifest dir [ save_design dir "sb1" d ~delta:(random_delta ~seed d) ];
      write_file (script dir)
        (String.concat ""
           (List.init script_len (fun i -> replace_line ~design:"sb1" ~seed i d ^ "\n")))
  | w -> failwith ("unknown workload " ^ w)
