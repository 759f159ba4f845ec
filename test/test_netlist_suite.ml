(* Tests for the netlist library: Libcell, Design, Builder, and design
   file I/O through Formats.Auto. *)

open Netlist

let check_float = Alcotest.(check (float 1e-6))

(* ---------------- Libcell ---------------- *)

let test_libcell_lookup () =
  let inv = Libcell.find_in_library "INV_X1" in
  Alcotest.(check string) "name" "INV_X1" inv.lname;
  Alcotest.(check bool) "not ff" false inv.is_ff;
  Alcotest.(check bool) "dff is ff" true Libcell.dff.is_ff;
  Alcotest.check_raises "unknown"
    (Invalid_argument "Libcell.find_in_library: unknown cell NOPE_X9") (fun () ->
      ignore (Libcell.find_in_library "NOPE_X9"))

let test_libcell_pins () =
  let nand = Libcell.find_in_library "NAND2_X1" in
  Alcotest.(check int) "inputs" 2 (List.length (Libcell.inputs nand));
  Alcotest.(check int) "outputs" 1 (List.length (Libcell.outputs nand));
  let a1 = Libcell.find_pin nand "a1" in
  Alcotest.(check bool) "input kind" true (a1.kind = Libcell.Input);
  Alcotest.(check bool) "cap positive" true (a1.cap > 0.0);
  let o = Libcell.find_pin nand "o" in
  check_float "output cap 0" 0.0 o.cap;
  Alcotest.check_raises "missing pin"
    (Invalid_argument "Libcell.find_pin: NAND2_X1 has no pin zz") (fun () ->
      ignore (Libcell.find_pin nand "zz"))

let test_libcell_pin_offsets_inside () =
  Array.iter
    (fun (lc : Libcell.t) ->
      Array.iter
        (fun (p : Libcell.lib_pin) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s.%s inside" lc.lname p.pname)
            true
            (Float.abs p.off_x <= (lc.width /. 2.0) +. 1e-9
            && Float.abs p.off_y <= (lc.height /. 2.0) +. 1e-9))
        lc.pins)
    Libcell.default_library

let test_library_sane () =
  Array.iter
    (fun (lc : Libcell.t) ->
      Alcotest.(check bool) (lc.lname ^ " width>0") true (lc.width > 0.0);
      Alcotest.(check bool) (lc.lname ^ " drive>0") true (lc.drive_res > 0.0);
      Alcotest.(check bool)
        (lc.lname ^ " has output")
        true
        (List.length (Libcell.outputs lc) = 1))
    Libcell.default_library

(* ---------------- Builder / Design ---------------- *)

let test_build_counts () =
  let d = Helpers.chain_design () in
  Alcotest.(check int) "cells" 5 (Design.num_cells d);
  Alcotest.(check int) "nets" 4 (Design.num_nets d);
  (* pi(1) + inv(2) + dff(2) + inv(2) + po(1) *)
  Alcotest.(check int) "pins" 8 (Design.num_pins d);
  Alcotest.(check int) "movable" 3 (Design.num_movable d)

let test_net_structure () =
  let d = Helpers.chain_design () in
  for nid = 0 to Design.num_nets d - 1 do
    let nname = Design.net_name d nid in
    Alcotest.(check bool) (nname ^ " has driver") true (d.net_driver.(nid) >= 0);
    Alcotest.(check bool) (nname ^ " has sinks") true (Design.net_num_sinks d nid >= 1);
    Alcotest.(check bool)
      (nname ^ " driver is output pin")
      true
      (Design.pin_dir d d.net_driver.(nid) = Design.Out);
    Design.iter_net_sinks d nid (fun s ->
        Alcotest.(check bool) "sink is input pin" true (Design.pin_dir d s = Design.In))
  done

let test_double_driver_rejected () =
  let b = Helpers.fresh_builder () in
  let u1 = Builder.add_logic b ~cname:"u1" ~lib:Helpers.inv ~x:0.0 ~y:0.0 () in
  let u2 = Builder.add_logic b ~cname:"u2" ~lib:Helpers.inv ~x:1.0 ~y:0.0 () in
  let n = Builder.add_net b ~nname:"n" in
  Builder.connect_by_name b ~net:n ~cell:u1 ~pin_name:"o";
  Alcotest.(check bool) "second driver rejected" true
    (try
       Builder.connect_by_name b ~net:n ~cell:u2 ~pin_name:"o";
       false
     with Util.Errors.Error (Util.Errors.Invalid_design _) -> true)

let test_reconnect_rejected () =
  let b = Helpers.fresh_builder () in
  let u1 = Builder.add_logic b ~cname:"u1" ~lib:Helpers.inv ~x:0.0 ~y:0.0 () in
  let n1 = Builder.add_net b ~nname:"n1" in
  let n2 = Builder.add_net b ~nname:"n2" in
  Builder.connect_by_name b ~net:n1 ~cell:u1 ~pin_name:"a1";
  Alcotest.(check bool) "pin reconnect rejected" true
    (try
       Builder.connect_by_name b ~net:n2 ~cell:u1 ~pin_name:"a1";
       false
     with Util.Errors.Error (Util.Errors.Invalid_design _) -> true)

let test_undriven_net_rejected () =
  let b = Helpers.fresh_builder () in
  let u1 = Builder.add_logic b ~cname:"u1" ~lib:Helpers.inv ~x:0.0 ~y:0.0 () in
  let n = Builder.add_net b ~nname:"dangling" in
  Builder.connect_by_name b ~net:n ~cell:u1 ~pin_name:"a1";
  Alcotest.(check bool) "undriven rejected" true
    (try
       ignore (Builder.finish b);
       false
     with Util.Errors.Error (Util.Errors.Invalid_design _) -> true)

(* ---------------- CSR adjacency invariants (SoA database) ------------ *)

(* Offsets monotone and exhaustive; every pin id exactly once in the cell
   CSR under its recorded owner; every connected pin exactly once in the
   net CSR under its recorded net, driver first. *)
let check_csr_invariants (d : Design.t) =
  let nc = Design.num_cells d and np = Design.num_pins d and nn = Design.num_nets d in
  Alcotest.(check int) "cell_pin_off starts at 0" 0 d.cell_pin_off.(0);
  Alcotest.(check int) "cell CSR covers all pins" np d.cell_pin_off.(nc);
  for i = 0 to nc - 1 do
    Alcotest.(check bool) "cell_pin_off monotone" true
      (d.cell_pin_off.(i + 1) >= d.cell_pin_off.(i))
  done;
  Alcotest.(check int) "net_pin_off starts at 0" 0 d.net_pin_off.(0);
  for n = 0 to nn - 1 do
    Alcotest.(check bool) "net_pin_off monotone" true (d.net_pin_off.(n + 1) >= d.net_pin_off.(n))
  done;
  let seen = Array.make (max 1 np) 0 in
  for i = 0 to nc - 1 do
    for k = d.cell_pin_off.(i) to d.cell_pin_off.(i + 1) - 1 do
      let p = d.cell_pin_ids.(k) in
      seen.(p) <- seen.(p) + 1;
      Alcotest.(check int) "pin under its owner" i d.pin_owner.(p)
    done
  done;
  for p = 0 to np - 1 do
    Alcotest.(check int) "pin partitioned exactly once" 1 seen.(p)
  done;
  Array.fill seen 0 (Array.length seen) 0;
  for n = 0 to nn - 1 do
    let off = d.net_pin_off.(n) and stop = d.net_pin_off.(n + 1) in
    if stop > off && d.net_driver.(n) >= 0 then
      Alcotest.(check int) "driver first in net row" d.net_driver.(n) d.net_pin_ids.(off);
    for k = off to stop - 1 do
      let p = d.net_pin_ids.(k) in
      seen.(p) <- seen.(p) + 1;
      Alcotest.(check int) "pin under its net" n d.pin_net.(p)
    done;
    Alcotest.(check int) "degree matches offsets" (stop - off) (Design.net_degree d n)
  done;
  for p = 0 to np - 1 do
    Alcotest.(check int) "connected pin in net CSR exactly once"
      (if d.pin_net.(p) >= 0 then 1 else 0)
      seen.(p)
  done

let test_csr_invariants_chain () = check_csr_invariants (Helpers.chain_design ())

let test_csr_invariants_generated () = check_csr_invariants (Lazy.force Helpers.small_generated)

(* Round-trip against the builder input: pins appear in add order under
   each cell, net rows follow the connection order (driver, then sinks as
   connected). chain_design wires pi.p->u1.a1, u1.o->ff.d, ff.q->u2.a1,
   u2.o->po.p on cells pi(0) u1(1) ff(2) u2(3) po(4). *)
let test_csr_roundtrip_builder () =
  let d = Helpers.chain_design () in
  let pin cell name =
    let found = ref (-1) in
    Design.iter_cell_pins d cell (fun p -> if Design.pin_name d p = name then found := p);
    Alcotest.(check bool) (Printf.sprintf "cell %d has pin %s" cell name) true (!found >= 0);
    !found
  in
  let expected =
    [|
      [| pin 0 "p"; pin 1 "a1" |];
      [| pin 1 "o"; pin 2 "d" |];
      [| pin 2 "q"; pin 3 "a1" |];
      [| pin 3 "o"; pin 4 "p" |];
    |]
  in
  for n = 0 to Design.num_nets d - 1 do
    Alcotest.(check (array int))
      (Design.net_name d n ^ " row matches connection order")
      expected.(n) (Design.net_pins d n)
  done;
  (* Cell rows are contiguous and in pin-add order (inv: a1 then o). *)
  Alcotest.(check (list string)) "u1 pins in add order" [ "a1"; "o" ]
    (Array.to_list (Design.cell_pins d 1) |> List.map (Design.pin_name d))

let test_hpwl_hand_computed () =
  let d = Helpers.chain_design () in
  (* Net n1: pi pin at (0,50); u1.a1 at 30-0.5, 50 = (29.5, 50). *)
  check_float "n1 hpwl" 29.5 (Design.net_hpwl d 0);
  let sum = ref 0.0 in
  for nid = 0 to Design.num_nets d - 1 do
    sum := !sum +. Design.net_hpwl d nid
  done;
  Alcotest.(check bool) "total = sum" true (Float.abs (Design.total_hpwl d -. !sum) < 1e-9)

let test_pin_positions () =
  let d = Helpers.chain_design () in
  (* u1 is cell 1 at (30,50); its input a1 offset is (-w/2, 0) = (-0.5, 0). *)
  let a1 =
    Array.to_list (Design.cell_pins d 1) |> List.find (fun p -> Design.pin_name d p = "a1")
  in
  check_float "pin x" 29.5 (Design.pin_x d a1);
  check_float "pin y" 50.0 (Design.pin_y d a1)

let test_snapshot_restore () =
  let d = Helpers.chain_design () in
  let snap = Design.snapshot d in
  let h0 = Design.total_hpwl d in
  d.x.{1} <- 5.0;
  d.y.{1} <- 5.0;
  Alcotest.(check bool) "changed" true (Design.total_hpwl d <> h0);
  Design.restore d snap;
  check_float "restored" h0 (Design.total_hpwl d)

let test_clamp_movable () =
  let d = Helpers.chain_design () in
  d.x.{1} <- -50.0;
  d.y.{1} <- 500.0;
  Design.clamp_movable d;
  let r = Design.cell_rect d 1 in
  Alcotest.(check bool) "inside die" true
    (r.xl >= d.die.xl -. 1e-9 && r.xh <= d.die.xh +. 1e-9 && r.yh <= d.die.yh +. 1e-9)

let test_reset_net_weights () =
  let d = Helpers.chain_design () in
  d.net_weight.{0} <- 7.0;
  Design.reset_net_weights d;
  check_float "reset" 1.0 d.net_weight.{0}

let test_cell_rect () =
  let d = Helpers.chain_design () in
  let r = Design.cell_rect d 1 in
  check_float "w" Helpers.inv.Libcell.width (Geom.Rect.width r);
  check_float "centered" 30.0 (Geom.Rect.center r).x

(* ---------------- Design file I/O (Formats.Auto) ---------------- *)

let bits = Int64.bits_of_float

let test_io_roundtrip () =
  let d = Lazy.force Helpers.small_generated in
  Helpers.with_saved d (fun path ->
      let d2 = Formats.Auto.load path in
      Alcotest.(check int) "cells" (Design.num_cells d) (Design.num_cells d2);
      Alcotest.(check int) "nets" (Design.num_nets d) (Design.num_nets d2);
      Alcotest.(check int) "pins" (Design.num_pins d) (Design.num_pins d2);
      Alcotest.(check int64) "hpwl bit-exact" (bits (Design.total_hpwl d))
        (bits (Design.total_hpwl d2));
      Alcotest.(check int64) "clock bit-exact" (bits d.clock_period) (bits d2.clock_period);
      (* Net-by-net structural identity. *)
      for nid = 0 to Design.num_nets d - 1 do
        Alcotest.(check int) "degree" (Design.net_degree d nid) (Design.net_degree d2 nid);
        Alcotest.(check int) "driver owner"
          d.pin_owner.(d.net_driver.(nid))
          d2.pin_owner.(d2.net_driver.(nid))
      done)

let test_io_roundtrip_twice_identical () =
  let d = Helpers.chain_design () in
  let d2 = Helpers.with_saved d Formats.Auto.load in
  Alcotest.(check string) "save(load(save)) = save" (Helpers.bundle_bytes d)
    (Helpers.bundle_bytes d2)

let expect_parse_failed what ~line path =
  match Formats.Auto.load path with
  | _ -> Alcotest.failf "%s: loaded cleanly, expected parse_error" what
  | exception Util.Errors.Error (Util.Errors.Parse_failed { file; line = l; _ } as e) ->
      Alcotest.(check string) (what ^ ": kind") "parse_error" (Util.Errors.kind e);
      Alcotest.(check int) (what ^ ": exit code") 6 (Util.Errors.exit_code e);
      Alcotest.(check string) (what ^ ": file") path file;
      Alcotest.(check int) (what ^ ": line") line l;
      Util.Errors.message e

let test_io_parse_error () =
  Helpers.with_temp_dir (fun dir ->
      let path = Filename.concat dir "bad.aux" in
      Helpers.write_file path "RowBasedPlacement : bad.nodes\nbogus record here\n";
      ignore (expect_parse_failed "malformed aux" ~line:2 path);
      ignore (expect_parse_failed "missing file" ~line:0 (Filename.concat dir "none.aux")))

(* An extension no reader handles is a typed parse_error naming the
   supported extensions; saving to one is a config_error. *)
let test_io_unknown_extension () =
  Helpers.with_temp_dir (fun dir ->
      let path = Filename.concat dir "x.design" in
      Helpers.write_file path "design x\n";
      let msg = expect_parse_failed "unknown extension" ~line:0 path in
      List.iter
        (fun ext ->
          Alcotest.(check bool) ("message names " ^ ext) true
            (Helpers.contains ~sub:ext msg))
        [ ".aux"; ".def" ];
      match Formats.Auto.save path (Helpers.chain_design ()) with
      | () -> Alcotest.fail "save to .design: expected config_error"
      | exception Util.Errors.Error (Util.Errors.Config_error { what; _ }) ->
          Alcotest.(check string) "save what" "out" what)

(* A builder is reusable after [reset]: populating, resetting and
   populating again must give a byte-identical design DB, with no leaked
   cells, pins, nets or library entries from the first build. Same for
   loading one file twice through Formats.Auto — the daemon loads many
   designs through one process, so any parser or builder state that
   survives a build corrupts the next one. *)
let test_builder_reset_reuse () =
  let dump = Helpers.bundle_bytes in
  let populate b =
    let pi = Builder.add_input_pad b ~cname:"pi" ~x:0.0 ~y:50.0 in
    let u1 = Builder.add_logic b ~cname:"u1" ~lib:Helpers.inv ~x:30.0 ~y:50.0 () in
    let ff = Builder.add_logic b ~cname:"ff" ~lib:Libcell.dff ~x:60.0 ~y:50.0 () in
    let po = Builder.add_output_pad b ~cname:"po" ~x:100.0 ~y:50.0 in
    let wire src spin dst dpin name =
      let n = Builder.add_net b ~nname:name in
      Builder.connect_by_name b ~net:n ~cell:src ~pin_name:spin;
      Builder.connect_by_name b ~net:n ~cell:dst ~pin_name:dpin
    in
    wire pi "p" u1 "a1" "n1";
    wire u1 "o" ff "d" "n2";
    wire ff "q" po "p" "n3";
    Builder.finish b
  in
  let b = Helpers.fresh_builder () in
  let first = dump (populate b) in
  Builder.reset b;
  let again = dump (populate b) in
  Alcotest.(check string) "reset builder rebuilds identically" first again;
  (* And twice more to catch state that only leaks on the second reuse. *)
  Builder.reset b;
  let third = populate b in
  Alcotest.(check string) "third build identical" first (dump third);
  Helpers.with_saved third (fun path ->
      let d1 = dump (Formats.Auto.load path) in
      let d2 = dump (Formats.Auto.load path) in
      Alcotest.(check string) "Formats.Auto load-twice identical DBs" d1 d2;
      Alcotest.(check string) "reload reproduces the dump" first d1)

let suite =
  [
    ("libcell lookup", `Quick, test_libcell_lookup);
    ("libcell pins", `Quick, test_libcell_pins);
    ("libcell pin offsets", `Quick, test_libcell_pin_offsets_inside);
    ("library sanity", `Quick, test_library_sane);
    ("builder counts", `Quick, test_build_counts);
    ("net structure", `Quick, test_net_structure);
    ("double driver rejected", `Quick, test_double_driver_rejected);
    ("pin reconnect rejected", `Quick, test_reconnect_rejected);
    ("undriven net rejected", `Quick, test_undriven_net_rejected);
    ("csr invariants (chain)", `Quick, test_csr_invariants_chain);
    ("csr invariants (generated)", `Quick, test_csr_invariants_generated);
    ("csr roundtrip vs builder", `Quick, test_csr_roundtrip_builder);
    ("hpwl hand computed", `Quick, test_hpwl_hand_computed);
    ("pin positions", `Quick, test_pin_positions);
    ("snapshot/restore", `Quick, test_snapshot_restore);
    ("clamp movable", `Quick, test_clamp_movable);
    ("reset net weights", `Quick, test_reset_net_weights);
    ("cell rect", `Quick, test_cell_rect);
    ("io roundtrip generated design", `Quick, test_io_roundtrip);
    ("io roundtrip stable", `Quick, test_io_roundtrip_twice_identical);
    ("io parse error", `Quick, test_io_parse_error);
    ("io unknown extension", `Quick, test_io_unknown_extension);
    ("builder reset reuse / load twice", `Quick, test_builder_reset_reuse);
  ]
