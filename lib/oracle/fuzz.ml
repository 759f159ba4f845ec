(** Seeded shrinking fuzzer (see the interface). *)

type prop = { name : string; check : Netlist.Design.t -> (unit, string) result }

type failure = {
  prop_name : string;
  params : Workloads.Genparams.t;
  message : string;
  dump : string option;
}

let params_to_string (p : Workloads.Genparams.t) =
  Printf.sprintf
    "seed=%d comb=%d ff=%d in=%d out=%d levels=%d hub_prob=%g macros=%d util=%g"
    p.seed p.num_comb p.num_ff p.num_inputs p.num_outputs p.levels p.fanout_hub_prob
    p.num_macros p.utilization

let check_params prop (p : Workloads.Genparams.t) =
  match prop.check (Workloads.Generate.generate p) with
  | r -> r
  | exception e -> Error (Printf.sprintf "exception: %s" (Printexc.to_string e))

(* Same small ranges as the integration fuzz suite. *)
let random_params rng =
  {
    Workloads.Genparams.default with
    name = "oracle-fuzz";
    seed = Util.Rng.int rng 1_000_000;
    num_comb = 40 + Util.Rng.int rng 260;
    num_ff = 8 + Util.Rng.int rng 60;
    num_inputs = 4 + Util.Rng.int rng 20;
    num_outputs = 4 + Util.Rng.int rng 20;
    levels = 2 + Util.Rng.int rng 8;
    num_macros = Util.Rng.int rng 4;
    fanout_hub_prob = Util.Rng.float rng 0.1;
  }

(* Shrink candidates: each size knob halved toward its floor, probability
   knobs zeroed. Order matters — the big knobs first, so the netlist
   shrinks fastest. *)
let halve ~floor v = if v > floor then Some (floor + ((v - floor) / 2)) else None

let candidates (p : Workloads.Genparams.t) =
  List.filter_map
    (fun c -> c)
    [
      Option.map (fun v -> { p with Workloads.Genparams.num_comb = v }) (halve ~floor:40 p.num_comb);
      Option.map (fun v -> { p with Workloads.Genparams.num_ff = v }) (halve ~floor:8 p.num_ff);
      Option.map (fun v -> { p with Workloads.Genparams.levels = v }) (halve ~floor:2 p.levels);
      Option.map (fun v -> { p with Workloads.Genparams.num_inputs = v }) (halve ~floor:4 p.num_inputs);
      Option.map (fun v -> { p with Workloads.Genparams.num_outputs = v }) (halve ~floor:4 p.num_outputs);
      Option.map (fun v -> { p with Workloads.Genparams.num_macros = v }) (halve ~floor:0 p.num_macros);
      (if p.fanout_hub_prob > 0.0 then Some { p with Workloads.Genparams.fanout_hub_prob = 0.0 }
       else None);
    ]

let shrink prop (p0 : Workloads.Genparams.t) =
  let message = ref (match check_params prop p0 with Error m -> m | Ok () -> "not failing") in
  let cur = ref p0 in
  let improved = ref true in
  while !improved do
    improved := false;
    List.iter
      (fun cand ->
        if not !improved then
          match check_params prop cand with
          | Error m ->
              cur := cand;
              message := m;
              improved := true
          | Ok () -> ())
      (candidates !cur)
  done;
  (!cur, !message)

(* ------------------------------------------------------------------ *)
(* The standard battery.                                               *)

let tighten d =
  (* A tight clock so timing properties exercise violated paths. *)
  d.Netlist.Design.clock_period <- 200.0;
  d

let timed_timer d =
  let d = tighten d in
  let timer = Sta.Timer.create d in
  Sta.Timer.update timer;
  timer

open Compare

let prop_sta_full =
  {
    name = "sta-full-vs-dfs";
    check =
      (fun d ->
        let timer = timed_timer d in
        let graph = Sta.Timer.graph timer in
        let* () =
          check_array_exact ~what:"arrivals" (Sta.Timer.arrivals timer) (Ref_sta.arrivals graph)
        in
        let slack = Ref_sta.slacks graph in
        let* () = check_array_exact ~what:"slacks" (Sta.Timer.slacks timer) slack in
        let* () =
          check_float ~rtol:0.0 ~what:"wns" (Sta.Timer.wns timer) (Ref_sta.wns graph ~slack)
        in
        check_float ~rtol:0.0 ~what:"tns" (Sta.Timer.tns timer) (Ref_sta.tns graph ~slack));
  }

let prop_incremental_sta =
  {
    name = "sta-incremental-walk";
    check =
      (fun d ->
        let d = tighten d in
        let timer = Sta.Timer.create d in
        Sta.Timer.update timer;
        let rng = Util.Rng.create (Netlist.Design.num_cells d) in
        let movable = Array.of_list (Netlist.Design.movable_ids d) in
        let steps = ref (Ok ()) in
        for _ = 1 to 8 do
          if !steps = Ok () then begin
            let moved = ref [] in
            for _ = 1 to 1 + Util.Rng.int rng 4 do
              let c = Util.Rng.choose rng movable in
              d.Netlist.Design.x.{c} <-
                d.Netlist.Design.x.{c} +. Util.Rng.float_range rng (-30.0) 30.0;
              d.Netlist.Design.y.{c} <-
                d.Netlist.Design.y.{c} +. Util.Rng.float_range rng (-30.0) 30.0;
              moved := c :: !moved
            done;
            Netlist.Design.clamp_movable d;
            Sta.Timer.update_moved timer ~cells:!moved;
            steps := Ref_sta.check_incremental timer
          end
        done;
        !steps);
  }

let prop_paths =
  {
    name = "paths-vs-exhaustive";
    check =
      (fun d ->
        let timer = timed_timer d in
        let graph = Sta.Timer.graph timer in
        match Sta.Timer.failing_endpoints timer with
        | [] -> Ok ()
        | ep :: _ ->
            let got = Sta.Timer.k_worst timer ~endpoint:ep ~k:5 in
            let want = Ref_paths.k_worst graph ~endpoint:ep ~k:5 in
            check_paths ~what:(Printf.sprintf "k_worst endpoint %d" ep) got want);
  }

let prop_elmore =
  {
    name = "elmore-vs-naive";
    check =
      (fun d ->
        let checks = ref [] in
        for nid = 0 to Netlist.Design.num_nets d - 1 do
          if Netlist.Design.net_degree d nid >= 2 && List.length !checks < 12 then begin
            let pids = Netlist.Design.net_pins d nid in
            let xs = Array.map (fun pid -> Netlist.Design.pin_x d pid) pids in
            let ys = Array.map (fun pid -> Netlist.Design.pin_y d pid) pids in
            let tree = Rctree.Steiner.steiner ~xs ~ys in
            let term_cap i = d.Netlist.Design.pin_cap.{pids.(i)} in
            checks :=
              Ref_elmore.check tree ~r:d.Netlist.Design.r_per_unit
                ~c:d.Netlist.Design.c_per_unit ~term_cap
              :: !checks
          end
        done;
        all !checks);
  }

let prop_wa_grad =
  {
    name = "wa-grad-fd";
    check =
      (fun d ->
        let movable = Netlist.Design.movable_ids d in
        let cells = List.filteri (fun i _ -> i < 4) movable in
        Ref_place.wa_fd_check d ~gamma:8.0 ~cells);
  }

let prop_density =
  {
    name = "density-direct";
    check =
      (fun d ->
        let grid = Gp.Densitygrid.create ~par:(Util.Parallel.default ()) d ~bins_x:16 ~bins_y:16 in
        Gp.Densitygrid.update grid d;
        let* () =
          check_array ~rtol:1e-9 ~atol:1e-9 ~what:"density grid"
            grid.Gp.Densitygrid.density (Ref_place.density_direct d grid)
        in
        Metamorphic.density_mass d grid);
  }

(* CSR adjacency invariants of the SoA database: offsets start at 0, end
   at the pin count, and are monotone; the cell CSR partitions the pin id
   space exactly once with agreeing [pin_owner]; the net CSR lists every
   connected pin exactly once under its [pin_net] with the driver first;
   the degree/sink accessors agree with the offsets; the timing graph's
   arc layout matches the design. *)
let prop_csr =
  {
    name = "csr-invariants";
    check =
      (fun d ->
        let open Netlist.Design in
        let nc = num_cells d and np = num_pins d and nn = num_nets d in
        let problem = ref None in
        let bad fmt =
          Printf.ksprintf (fun m -> if !problem = None then problem := Some m) fmt
        in
        if d.cell_pin_off.(0) <> 0 then bad "cell_pin_off.(0) = %d" d.cell_pin_off.(0);
        if d.cell_pin_off.(nc) <> np then
          bad "cell CSR covers %d of %d pins" d.cell_pin_off.(nc) np;
        for i = 0 to nc - 1 do
          if d.cell_pin_off.(i + 1) < d.cell_pin_off.(i) then
            bad "cell_pin_off not monotone at cell %d" i
        done;
        if d.net_pin_off.(0) <> 0 then bad "net_pin_off.(0) = %d" d.net_pin_off.(0);
        for n = 0 to nn - 1 do
          if d.net_pin_off.(n + 1) < d.net_pin_off.(n) then
            bad "net_pin_off not monotone at net %d" n
        done;
        (* Cell CSR: every pin id exactly once, under its owner. *)
        let seen = Array.make (max 1 np) 0 in
        for i = 0 to nc - 1 do
          for k = d.cell_pin_off.(i) to d.cell_pin_off.(i + 1) - 1 do
            let p = d.cell_pin_ids.(k) in
            if p < 0 || p >= np then bad "cell %d: pin id %d out of range" i p
            else begin
              seen.(p) <- seen.(p) + 1;
              if d.pin_owner.(p) <> i then
                bad "pin %d: owner %d but listed under cell %d" p d.pin_owner.(p) i
            end
          done
        done;
        for p = 0 to np - 1 do
          if seen.(p) <> 1 then bad "pin %d appears %d times in the cell CSR" p seen.(p)
        done;
        (* Net CSR: every connected pin exactly once, driver first. *)
        Array.fill seen 0 (Array.length seen) 0;
        for n = 0 to nn - 1 do
          let off = d.net_pin_off.(n) and stop = d.net_pin_off.(n + 1) in
          if stop > off && d.net_driver.(n) >= 0 && d.net_pin_ids.(off) <> d.net_driver.(n)
          then bad "net %d: driver pin %d not first in CSR row" n d.net_driver.(n);
          for k = off to stop - 1 do
            let p = d.net_pin_ids.(k) in
            if p < 0 || p >= np then bad "net %d: pin id %d out of range" n p
            else begin
              seen.(p) <- seen.(p) + 1;
              if d.pin_net.(p) <> n then
                bad "pin %d: pin_net %d but listed under net %d" p d.pin_net.(p) n
            end
          done;
          if net_degree d n <> stop - off then bad "net %d: degree accessor mismatch" n;
          if stop > off && net_num_sinks d n <> stop - off - 1 then
            bad "net %d: sink count mismatch" n
        done;
        for p = 0 to np - 1 do
          let expect = if d.pin_net.(p) >= 0 then 1 else 0 in
          if seen.(p) <> expect then
            bad "pin %d appears %d times in the net CSR (expected %d)" p seen.(p) expect
        done;
        (* Timing-graph arc layout: [net_arc] runs from the driver to the
           sink it names, the net arcs are exactly the prefix, there is one
           per sink plus inputs x outputs per combinational cell, and the
           endpoints are the ascending [is_endpoint] scan. *)
        let g = Sta.Graph.build d in
        let counted = ref 0 in
        for n = 0 to nn - 1 do
          for k = 0 to net_num_sinks d n - 1 do
            incr counted;
            let a = Sta.Graph.net_arc g ~net:n ~sink:k in
            if g.arc_from.(a) <> d.net_driver.(n) || g.arc_to.(a) <> net_sink d n k then
              bad "net %d sink %d: net_arc %d runs %d -> %d" n k a g.arc_from.(a) g.arc_to.(a)
          done
        done;
        for c = 0 to nc - 1 do
          if kind d c = Logic && not (is_ff d c) then
            let is_in p = pin_dir d p = In in
            let ins = Array.fold_left (fun n p -> if is_in p then n + 1 else n) 0 (cell_pins d c) in
            counted := !counted + (ins * (cell_num_pins d c - ins))
        done;
        if g.num_arcs <> !counted then bad "num_arcs %d, counted %d" g.num_arcs !counted;
        for a = 0 to g.num_arcs - 1 do
          let i = g.arc_from.(a) and j = g.arc_to.(a) and is_net = Sta.Graph.is_net_arc g a in
          let net_shaped = pin_dir d i = Out && d.pin_net.(i) = d.pin_net.(j) in
          if is_net <> (a < g.num_net_arcs) || is_net <> net_shaped then
            bad "arc %d (%d -> %d): is_net_arc %b, %d net arcs" a i j is_net g.num_net_arcs
        done;
        let scan = List.filter (fun p -> g.is_endpoint.(p)) (List.init np Fun.id) in
        if Array.to_list g.endpoints <> scan then
          bad "endpoints differ from the ascending is_endpoint scan";
        match !problem with None -> Ok () | Some m -> Error m);
  }

let default_props =
  [
    prop_sta_full; prop_incremental_sta; prop_paths; prop_elmore; prop_wa_grad; prop_density;
    prop_csr;
  ]

(* ------------------------------------------- format mutate-reparse -- *)

(* Serialize the design to a foreign format, corrupt one byte at a time,
   and reparse. The parsers' only acceptable outcomes are a clean parse
   (the mutation was benign), Scan.Parse_error, or a structural
   Invalid_design from Builder.finish — any other exception (assert,
   Invalid_argument, out-of-bounds, stack overflow) is a fuzz failure.
   Mutation positions/values come from a stream seeded by the file
   contents, so the prop is deterministic in the design. *)
let mutations_per_file = 24

let read_bin path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_bin path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let mutate_reparse ~fmt_name ~write ~parse =
  {
    name = Printf.sprintf "%s-mutate-reparse" fmt_name;
    check =
      (fun d ->
        let dir =
          Filename.concat (Filename.get_temp_dir_name ())
            (Printf.sprintf "etdp_fuzz_%s_%d" fmt_name (Unix.getpid ()))
        in
        (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
        Fun.protect
          ~finally:(fun () ->
            Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
            Unix.rmdir dir)
          (fun () ->
            let entry, files = write dir d in
            let problem = ref None in
            List.iter
              (fun file ->
                let orig = read_bin file in
                let n = String.length orig in
                if n > 0 then begin
                  let rng = Util.Rng.create (Hashtbl.hash (d.Netlist.Design.name, n)) in
                  for _ = 1 to mutations_per_file do
                    let pos = Util.Rng.int rng n in
                    let b = Char.chr (Util.Rng.int rng 256) in
                    let mutated = Bytes.of_string orig in
                    Bytes.set mutated pos b;
                    write_bin file (Bytes.to_string mutated);
                    (match parse entry with
                    | (_ : Netlist.Design.t) -> ()
                    | exception Formats.Scan.Parse_error _ -> ()
                    | exception Util.Errors.Error (Util.Errors.Invalid_design _) -> ()
                    | exception e ->
                        if !problem = None then
                          problem :=
                            Some
                              (Printf.sprintf "%s byte %d -> %#x: escaped exception %s"
                                 (Filename.basename file) pos (Char.code b)
                                 (Printexc.to_string e)))
                  done;
                  write_bin file orig
                end)
              files;
            match !problem with None -> Ok () | Some m -> Error m));
  }

let format_props =
  [
    mutate_reparse ~fmt_name:"bookshelf"
      ~write:(fun dir d ->
        let aux = Formats.Bookshelf.write ~dir ~stem:"fz" d in
        let all =
          List.filter Sys.file_exists
            (List.map
               (fun e -> Filename.concat dir ("fz" ^ e))
               [ ".aux"; ".nodes"; ".nets"; ".pl"; ".scl"; ".cells" ])
        in
        (aux, all))
      ~parse:Formats.Bookshelf.read_aux;
    mutate_reparse ~fmt_name:"def"
      ~write:(fun dir d ->
        let lef = Filename.concat dir "fz.lef" in
        let def = Filename.concat dir "fz.def" in
        Formats.Lefdef.write ~lef_path:lef ~def_path:def d;
        (def, [ lef; def ]))
      ~parse:(fun def ->
        let lef = Formats.Lefdef.read_lef (Filename.concat (Filename.dirname def) "fz.lef") in
        Formats.Lefdef.read_def ~lef def);
  ]

(* ------------------------------------------------------------------ *)

let mkdir_p dir =
  (* Parents first; EEXIST is fine. *)
  let rec go dir =
    if dir <> "/" && dir <> "." && not (Sys.file_exists dir) then begin
      go (Filename.dirname dir);
      try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  go dir

let dump_failure ~dump_dir prop_name (p : Workloads.Genparams.t) message =
  mkdir_p dump_dir;
  let base = Filename.concat dump_dir (Printf.sprintf "%s-seed%d" prop_name p.seed) in
  (* A Bookshelf bundle: bit-exact, so reloading it through
     Formats.Auto.load reproduces the generated design exactly. *)
  Formats.Auto.save (base ^ ".aux") (Workloads.Generate.generate p);
  let oc = open_out (base ^ ".txt") in
  Printf.fprintf oc "prop: %s\nparams: %s\nmessage: %s\n" prop_name (params_to_string p) message;
  close_out oc;
  base ^ ".aux"

let run ?dump_dir ?(iters = 10) ~seed props =
  let rng = Util.Rng.create seed in
  let failures = ref [] in
  for _ = 1 to iters do
    let p = random_params rng in
    List.iter
      (fun prop ->
        match check_params prop p with
        | Ok () -> ()
        | Error _ ->
            let small, message = shrink prop p in
            let dump = Option.map (fun dir -> dump_failure ~dump_dir:dir prop.name small message) dump_dir in
            failures := { prop_name = prop.name; params = small; message; dump } :: !failures)
      props
  done;
  List.rev !failures
