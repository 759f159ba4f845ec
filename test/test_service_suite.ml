(* The placement service layer: JSONL protocol codec, ECO deltas, job
   accounting, the warm-state registry, and the request engine — through
   to the placed daemon binary driven over stdin. The engine contract
   under test throughout: no job may kill the daemon, and a failed job
   leaves the loaded designs consistent. *)

open Service

let json_str j = Obs.Json.to_string j

let member key j =
  match Obs.Json.member key j with
  | Some v -> v
  | None -> Alcotest.failf "reply %s has no %S field" (json_str j) key

let bool_member key j =
  match member key j with
  | Obs.Json.Bool b -> b
  | _ -> Alcotest.failf "field %S is not a bool in %s" key (json_str j)

let string_member key j =
  match Obs.Json.to_string_opt (member key j) with
  | Some s -> s
  | None -> Alcotest.failf "field %S is not a string in %s" key (json_str j)

let float_member key j =
  match Obs.Json.to_float (member key j) with
  | Some f -> f
  | None -> Alcotest.failf "field %S is not a number in %s" key (json_str j)

let error_kind reply = string_member "kind" (member "error" reply)

let expect_ok what reply =
  if not (bool_member "ok" reply) then Alcotest.failf "%s failed: %s" what (json_str reply);
  member "result" reply

let expect_error what ~kind reply =
  if bool_member "ok" reply then Alcotest.failf "%s unexpectedly succeeded" what;
  Alcotest.(check string) (what ^ " error kind") kind (error_kind reply)

let request ?(id = "t") op params =
  { Protocol.id; op; params = Obs.Json.Obj params }

(* ---------------- Protocol codec ---------------- *)

let test_protocol_parse () =
  (match Protocol.parse_request {|{"id":"7","op":"ping","params":{"a":1}}|} with
  | Ok r ->
      Alcotest.(check string) "id" "7" r.Protocol.id;
      Alcotest.(check string) "op" "ping" r.Protocol.op;
      Alcotest.(check (option int)) "param a" (Some 1) (Protocol.param_int r "a")
  | Error e -> Alcotest.failf "good request rejected: %s" e);
  (* Integer ids are accepted and stringified; params default to empty. *)
  (match Protocol.parse_request {|{"id":3,"op":"stats"}|} with
  | Ok r ->
      Alcotest.(check string) "int id" "3" r.Protocol.id;
      Alcotest.(check (option string)) "absent param" None (Protocol.param_string r "x")
  | Error e -> Alcotest.failf "int-id request rejected: %s" e);
  let rejected line = Result.is_error (Protocol.parse_request line) in
  Alcotest.(check bool) "garbage" true (rejected "not json");
  Alcotest.(check bool) "non-object" true (rejected {|[1,2]|});
  Alcotest.(check bool) "missing op" true (rejected {|{"id":"1"}|});
  Alcotest.(check bool) "empty op" true (rejected {|{"id":"1","op":""}|})

let test_protocol_replies () =
  let ok = Protocol.ok_reply ~id:"a" (Obs.Json.Obj [ ("pong", Obs.Json.Bool true) ]) in
  Alcotest.(check bool) "ok flag" true (bool_member "ok" ok);
  Alcotest.(check string) "ok id" "a" (string_member "id" ok);
  let e =
    Protocol.error_reply ~id:"b"
      (Util.Errors.Config_error { what = "flow"; detail = "unknown flow nope" })
  in
  Alcotest.(check bool) "error flag" false (bool_member "ok" e);
  Alcotest.(check string) "error kind" "config_error" (error_kind e);
  (* Typed replies carry the same structured fields as --report-json. *)
  Alcotest.(check string) "error field" "flow" (string_member "what" (member "error" e));
  let raw = Protocol.raw_error_reply ~id:"" ~kind:"bad_request" ~message:"nope" in
  Alcotest.(check string) "raw kind" "bad_request" (error_kind raw)

(* ---------------- ECO deltas ---------------- *)

let test_eco_roundtrip () =
  let ops =
    [
      Eco.Move { cell = 1; x = 10.0; y = 20.0 };
      Eco.Move_by { cell = 2; dx = -1.5; dy = 0.25 };
      Eco.Set_clock 450.0;
      Eco.Set_wire_rc { r = 0.08; c = 0.3 };
      Eco.Reweight { net = 0; weight = 2.0 };
    ]
  in
  (match Eco.of_json (Eco.to_json ops) with
  | Ok got -> Alcotest.(check bool) "roundtrip" true (got = ops)
  | Error e -> Alcotest.failf "roundtrip rejected: %s" e);
  Alcotest.(check bool) "non-list rejected" true
    (Result.is_error (Eco.of_json (Obs.Json.Obj [])));
  Alcotest.(check bool) "unknown op rejected" true
    (Result.is_error (Eco.of_json (Obs.Json.List [ Obs.Json.Obj [ ("op", Obs.Json.String "zap") ] ])))

let test_eco_validation_atomic () =
  let d = Helpers.chain_design () in
  let x0, y0 = Netlist.Design.snapshot d in
  let movable = List.hd (Netlist.Design.movable_ids d) in
  let attempt what ops =
    (match ops () with
    | (_ : Eco.applied) -> Alcotest.failf "%s: delta unexpectedly applied" what
    | exception Util.Errors.Error _ -> ());
    (* Rejected deltas must not have mutated anything (atomicity). *)
    let x1, y1 = Netlist.Design.snapshot d in
    Alcotest.(check bool) (what ^ " leaves placement intact") true (x0 = x1 && y0 = y1)
  in
  attempt "bad cell id" (fun () -> Eco.apply d [ Move { cell = 9999; x = 1.0; y = 1.0 } ]);
  attempt "fixed cell" (fun () ->
      let fixed =
        List.find (fun c -> not (Netlist.Design.is_movable d c))
          (List.init (Netlist.Design.num_cells d) Fun.id)
      in
      Eco.apply d [ Move { cell = fixed; x = 1.0; y = 1.0 } ]);
  attempt "non-finite move" (fun () ->
      Eco.apply d [ Move { cell = movable; x = Float.nan; y = 0.0 } ]);
  attempt "bad clock" (fun () -> Eco.apply d [ Set_clock (-1.0) ]);
  attempt "bad rc" (fun () -> Eco.apply d [ Set_wire_rc { r = Float.nan; c = 0.1 } ]);
  (* Atomicity across a mixed delta: valid eco op first, invalid second. *)
  attempt "mixed delta" (fun () ->
      Eco.apply d
        [ Move { cell = movable; x = 1.0; y = 1.0 }; Move { cell = -1; x = 0.0; y = 0.0 } ]);
  (* And a valid delta applies, clamps, and reports what changed. *)
  let a =
    Eco.apply d [ Move { cell = movable; x = 1e9; y = 1e9 }; Set_clock 450.0 ]
  in
  Alcotest.(check (list int)) "moved cells" [ movable ] a.Eco.moved;
  Alcotest.(check bool) "clock noted" true (a.Eco.clock = Some 450.0);
  Alcotest.(check (float 1e-9)) "clock written" 450.0 d.Netlist.Design.clock_period;
  let die = d.Netlist.Design.die in
  Alcotest.(check bool) "move clamped into the die" true
    (d.Netlist.Design.x.{movable} <= die.Geom.Rect.xh)

let test_eco_random () =
  let d = Helpers.chain_design () in
  let nm = List.length (Netlist.Design.movable_ids d) in
  let ops = Eco.random ~seed:3 ~frac:0.5 d in
  Alcotest.(check bool) "count bounded" true
    (List.length ops >= 1 && List.length ops <= nm);
  List.iter
    (function
      | Eco.Move_by { cell; dx; dy } ->
          Alcotest.(check bool) "movable target" true (Netlist.Design.is_movable d cell);
          Alcotest.(check bool) "finite displacement" true
            (Float.is_finite dx && Float.is_finite dy)
      | _ -> Alcotest.fail "random delta should be move_by ops")
    ops;
  (* Deterministic in the seed. *)
  Alcotest.(check bool) "seeded" true (Eco.random ~seed:3 ~frac:0.5 d = ops)

(* ---------------- Jobs accounting ---------------- *)

let test_jobs_accounting () =
  let jobs = Jobs.create ~capacity:8 () in
  Alcotest.(check (option (float 0.0))) "no latency yet" None (Jobs.latency_quantile jobs 0.5);
  for _ = 1 to 5 do
    Jobs.run jobs ~op:"ping" Fun.id
  done;
  (match Jobs.run jobs ~op:"boom" (fun () -> failwith "boom") with
  | () -> Alcotest.fail "exception swallowed"
  | exception Failure _ -> ());
  Alcotest.(check int) "completed counts failures too" 6 (Jobs.completed jobs);
  Alcotest.(check int) "failed" 1 (Jobs.failed jobs);
  let p50 = Option.get (Jobs.latency_quantile jobs 0.5) in
  let p99 = Option.get (Jobs.latency_quantile jobs 0.99) in
  Alcotest.(check bool) "quantiles monotone" true (0.0 <= p50 && p50 <= p99);
  let stats = Jobs.stats_json jobs in
  Alcotest.(check int) "ops counted"
    5
    (match Obs.Json.to_int (member "ping" (member "ops" stats)) with Some n -> n | None -> -1);
  Alcotest.(check bool) "throughput reported" true
    (match Jobs.throughput jobs with Some r -> r > 0.0 | None -> false)

(* ---------------- Registry ---------------- *)

let test_state_registry () =
  let st = State.create () in
  let d = Helpers.chain_design () in
  let entry = State.add st ~name:"a" d in
  Alcotest.(check bool) "find hit" true (State.find st "a" = Ok entry);
  Alcotest.(check (list string)) "names" [ "a" ] (State.names st);
  (match State.find st "b" with
  | Ok _ -> Alcotest.fail "phantom design"
  | Error msg ->
      (* A miss names what is loaded so the client can self-correct. *)
      Alcotest.(check bool) "miss lists loaded" true
        (String.length msg > 0
        && String.split_on_char 'a' msg |> List.length > 1));
  Alcotest.(check bool) "unload" true (State.unload st "a");
  Alcotest.(check bool) "unload missing" false (State.unload st "a");
  Alcotest.(check (list string)) "empty" [] (State.names st)

(* ---------------- Engine sessions ---------------- *)

let with_design_file f = Helpers.with_saved (Helpers.chain_design ()) f

let load_params ?(name = "c") path =
  [ ("path", Obs.Json.String path); ("name", Obs.Json.String name) ]

let test_engine_session () =
  with_design_file (fun path ->
      let engine = Engine.create () in
      let r = expect_ok "ping" (Engine.handle engine (request "ping" [])) in
      Alcotest.(check bool) "pong" true (bool_member "pong" r);
      let r = expect_ok "load" (Engine.handle engine (request "load" (load_params path))) in
      Alcotest.(check bool) "cell count" true (float_member "cells" r = 5.0);
      (* replace before place is a typed refusal, not a crash. *)
      expect_error "early replace" ~kind:"config_error"
        (Engine.handle engine
           (request "replace"
              [ ("design", Obs.Json.String "c"); ("random_frac", Obs.Json.Float 0.5) ]));
      let r =
        expect_ok "place"
          (Engine.handle engine
             (request "place"
                [ ("design", Obs.Json.String "c"); ("flow", Obs.Json.String "vanilla") ]))
      in
      Alcotest.(check bool) "metrics present" true (float_member "hpwl" (member "metrics" r) > 0.0);
      let r =
        expect_ok "replace"
          (Engine.handle engine
             (request "replace"
                [
                  ("design", Obs.Json.String "c");
                  ("flow", Obs.Json.String "vanilla");
                  ("random_frac", Obs.Json.Float 0.5);
                ]))
      in
      Alcotest.(check bool) "eco summary" true (float_member "moved" (member "eco" r) >= 1.0);
      let r =
        expect_ok "report_timing"
          (Engine.handle engine
             (request "report_timing" [ ("design", Obs.Json.String "c"); ("n", Obs.Json.Int 3) ]))
      in
      (match member "paths" r with
      | Obs.Json.List (_ :: _) -> ()
      | j -> Alcotest.failf "no paths reported: %s" (json_str j));
      let r = expect_ok "stats" (Engine.handle engine (request "stats" [])) in
      Alcotest.(check bool) "jobs counted" true (float_member "completed" (member "jobs" r) >= 4.0);
      Alcotest.(check bool) "design listed" true
        (bool_member "placed" (member "c" (member "designs" r)));
      (* Error taxonomy via the engine: every reply typed, engine alive. *)
      expect_error "unknown op" ~kind:"config_error"
        (Engine.handle engine (request "frobnicate" []));
      expect_error "unknown design" ~kind:"config_error"
        (Engine.handle engine (request "place" [ ("design", Obs.Json.String "nope") ]));
      expect_error "unknown flow" ~kind:"config_error"
        (Engine.handle engine
           (request "place"
              [ ("design", Obs.Json.String "c"); ("flow", Obs.Json.String "nope") ]));
      expect_error "bad delta" ~kind:"config_error"
        (Engine.handle engine
           (request "replace"
              [ ("design", Obs.Json.String "c"); ("delta", Obs.Json.String "zap") ]));
      expect_error "invalid delta target" ~kind:"invalid_design"
        (Engine.handle engine
           (request "replace"
              [
                ("design", Obs.Json.String "c");
                ( "delta",
                  Obs.Json.List
                    [
                      Obs.Json.Obj
                        [
                          ("op", Obs.Json.String "move");
                          ("cell", Obs.Json.Int 9999);
                          ("x", Obs.Json.Float 0.0);
                          ("y", Obs.Json.Float 0.0);
                        ];
                    ] );
              ]));
      expect_error "malformed line" ~kind:"bad_request" (Engine.handle_line engine "not json");
      (* Missing and malformed files: typed replies, not daemon death. *)
      expect_error "missing file" ~kind:"parse_error"
        (Engine.handle engine (request "load" (load_params "/nonexistent/x.aux")));
      Helpers.with_temp_dir (fun dir ->
          let garbage = Filename.concat dir "garbage.aux" in
          Helpers.write_file garbage "RowBasedPlacement : g.nodes\nbogus record here\n";
          expect_error "garbage file" ~kind:"parse_error"
            (Engine.handle engine (request "load" (load_params garbage))));
      Alcotest.(check bool) "unload" true
        (bool_member "unloaded"
           (expect_ok "unload"
              (Engine.handle engine (request "unload" [ ("name", Obs.Json.String "c") ]))));
      (* The session above kept the engine alive through 7 failures. *)
      Alcotest.(check bool) "failures recorded" true (Jobs.failed (Engine.jobs engine) >= 6);
      Alcotest.(check bool) "no shutdown yet" false (Engine.shutdown_requested engine);
      ignore (expect_ok "shutdown" (Engine.handle engine (request "shutdown" [])));
      Alcotest.(check bool) "shutdown latched" true (Engine.shutdown_requested engine))

let fault_plan spec =
  match Util.Fault.parse spec with Ok p -> p | Error e -> Alcotest.failf "fault plan: %s" e

(* Calls corrupted at the wirelength-gradient site so far, summed over
   the engine's jobs. *)
let wl_faults ctx =
  match Obs.Ctx.metric ctx "fault.wl_grad" with Some (Obs.Metric.Counter r) -> !r | _ -> 0.0

let place_c =
  request "place" [ ("design", Obs.Json.String "c"); ("flow", Obs.Json.String "vanilla") ]

(* A diverging job (persistent injected fault in the wirelength gradient)
   must come back as a typed "diverged" reply and leave the engine able
   to run the same job cleanly: the fault belongs to that job only. *)
let test_engine_survives_divergence () =
  with_design_file (fun path ->
      let ctx = Obs.Ctx.create () in
      let engine = Engine.create ~obs:ctx () in
      ignore (expect_ok "load" (Engine.handle engine (request "load" (load_params path))));
      expect_error "fault-injected place" ~kind:"diverged"
        (Engine.handle ~fault:(fault_plan "wl_grad=nan@0") engine place_c);
      Alcotest.(check bool) "fault injected" true (wl_faults ctx > 0.0);
      ignore (expect_ok "next place runs clean" (Engine.handle engine place_c)))

(* Faulty and clean jobs interleaved on one engine: every faulty job
   corrupts calls, and every clean reply is bit-identical to a fresh
   engine's — no fault state survives a job. *)
let test_engine_faults_per_job () =
  with_design_file (fun path ->
      let fresh_reply () =
        let engine = Engine.create () in
        ignore (expect_ok "load" (Engine.handle engine (request "load" (load_params path))));
        expect_ok "fresh place" (Engine.handle engine place_c)
      in
      let metrics r = json_str (member "metrics" r) ^ json_str (member "metrics_gp" r) in
      let reference = metrics (fresh_reply ()) in
      let ctx = Obs.Ctx.create () in
      let engine = Engine.create ~obs:ctx () in
      ignore (expect_ok "load" (Engine.handle engine (request "load" (load_params path))));
      let faulty what spec expect =
        let before = wl_faults ctx in
        expect (Engine.handle ~fault:(fault_plan spec) engine place_c);
        let n = wl_faults ctx -. before in
        Alcotest.(check bool) (what ^ " corrupted calls") true (n > 0.0);
        n
      in
      let clean what =
        Alcotest.(check string) (what ^ " matches a fresh engine") reference
          (metrics (expect_ok what (Engine.handle engine place_c)))
      in
      let transient what = faulty what "wl_grad=nan@0+4" (fun r -> ignore (expect_ok what r)) in
      let first = transient "transient fault" in
      clean "clean after transient";
      let diverged = expect_error "persistent" ~kind:"diverged" in
      ignore (faulty "persistent fault" "wl_grad=nan@0" diverged);
      clean "clean after divergence";
      Alcotest.(check (float 0.0)) "same window, same corruption" first
        (transient "same transient again");
      clean "clean at the end")

(* The daemon must place exactly what the one-shot binary places: same
   design, seed and flow give bit-identical metrics through the engine. *)
let test_engine_metrics_identity () =
  let d =
    Workloads.Generate.generate { Helpers.small_gen_params with name = "svc"; seed = 11 }
  in
  Helpers.with_saved d (fun path ->
      let engine = Engine.create () in
      ignore (expect_ok "load" (Engine.handle engine (request "load" (load_params ~name:"i" path))));
      let r =
        expect_ok "place"
          (Engine.handle engine
             (request "place"
                [
                  ("design", Obs.Json.String "i");
                  ("flow", Obs.Json.String "vanilla");
                  ("seed", Obs.Json.Int 5);
                ]))
      in
      let direct = Tdp.Flow.run ~seed:5 Tdp.Flow.Vanilla (Formats.Auto.load path) in
      let got key = float_member key (member "metrics" r) in
      let m = direct.Tdp.Flow.metrics in
      Alcotest.(check (float 0.0)) "hpwl identical" m.Evalkit.Metrics.hpwl (got "hpwl");
      Alcotest.(check (float 0.0)) "tns identical" m.Evalkit.Metrics.tns (got "tns");
      Alcotest.(check (float 0.0)) "wns identical" m.Evalkit.Metrics.wns (got "wns"))

(* The tentpole quality gate: replace after a <=1% ECO must land within
   golden tolerance of a from-scratch place, at >=2x speedup. *)
let test_warm_replace_quality () =
  let engine = Engine.create () in
  ignore
    (expect_ok "load"
       (Engine.handle engine
          (request "load" [ ("suite", Obs.Json.String "sb1"); ("name", Obs.Json.String "w") ])));
  let clock =
    match State.find (Engine.state engine) "w" with
    | Ok e -> e.State.design.Netlist.Design.clock_period
    | Error m -> Alcotest.fail m
  in
  let place_req =
    request "place"
      [ ("design", Obs.Json.String "w"); ("flow", Obs.Json.String "efficient");
        ("seed", Obs.Json.Int 1) ]
  in
  let cold = expect_ok "cold place" (Engine.handle engine place_req) in
  let warm_reply =
    expect_ok "replace"
      (Engine.handle engine
         (request "replace"
            [
              ("design", Obs.Json.String "w");
              ("flow", Obs.Json.String "efficient");
              ("seed", Obs.Json.Int 1);
              ("random_frac", Obs.Json.Float 0.01);
            ]))
  in
  let warm = member "result" warm_reply in
  let metric r key = float_member key (member "metrics" r) in
  let cold_t = float_member "runtime" cold and warm_t = float_member "runtime" warm in
  Alcotest.(check bool)
    (Printf.sprintf "warm >=2x faster (cold %.2fs, warm %.2fs)" cold_t warm_t)
    true
    (warm_t *. 2.0 <= cold_t);
  let dw = Float.abs (metric warm "wns" -. metric cold "wns") in
  let dt = Float.abs (metric warm "tns" -. metric cold "tns") in
  Alcotest.(check bool)
    (Printf.sprintf "wns within tolerance (delta %.1f ps, clock %.1f ps)" dw clock)
    true
    (dw <= 0.05 *. clock);
  Alcotest.(check bool)
    (Printf.sprintf "tns within tolerance (delta %.1f ps, clock %.1f ps)" dt clock)
    true
    (dt <= 0.25 *. clock)

(* ---------------- The daemon binary over stdin ---------------- *)

let placed_exe =
  Filename.concat
    (Filename.dirname Sys.executable_name)
    (Filename.concat Filename.parent_dir_name (Filename.concat "bin" "placed.exe"))

let test_daemon_stdin_session () =
  with_design_file (fun path ->
      let req = Filename.temp_file "placed_req" ".jsonl" in
      let out = Filename.temp_file "placed_out" ".jsonl" in
      Fun.protect
        ~finally:(fun () -> List.iter Sys.remove [ req; out ])
        (fun () ->
          let oc = open_out req in
          output_string oc
            (String.concat "\n"
               [
                 {|{"id":"1","op":"ping"}|};
                 "garbage line";
                 Printf.sprintf
                   {|{"id":"2","op":"load","params":{"path":"%s","name":"c"}}|} path;
                 {|{"id":"3","op":"place","params":{"design":"c","flow":"vanilla"}}|};
                 {|{"id":"4","op":"report_timing","params":{"design":"c","n":2}}|};
                 {|{"id":"5","op":"stats"}|};
                 {|{"id":"6","op":"shutdown"}|};
               ]);
          output_char oc '\n';
          close_out oc;
          let code =
            Sys.command
              (Printf.sprintf "%s --log-level quiet < %s > %s 2>/dev/null" placed_exe req out)
          in
          Alcotest.(check int) "daemon exit 0" 0 code;
          let ic = open_in out in
          let lines = ref [] in
          (try
             while true do
               lines := input_line ic :: !lines
             done
           with End_of_file -> close_in ic);
          let replies =
            List.rev_map
              (fun line ->
                match Obs.Json.parse line with
                | Ok j -> j
                | Error e -> Alcotest.failf "unparseable reply %s: %s" line e)
              !lines
          in
          Alcotest.(check int) "one reply per request" 7 (List.length replies);
          let reply id =
            List.find (fun j -> string_member "id" j = id) replies
          in
          ignore (expect_ok "ping" (reply "1"));
          expect_error "garbage line" ~kind:"bad_request" (reply "");
          ignore (expect_ok "load" (reply "2"));
          let placed = expect_ok "place" (reply "3") in
          Alcotest.(check bool) "daemon metrics" true
            (float_member "hpwl" (member "metrics" placed) > 0.0);
          ignore (expect_ok "report_timing" (reply "4"));
          let stats = expect_ok "stats" (reply "5") in
          Alcotest.(check bool) "one failed job (garbage parses before dispatch)" true
            (float_member "completed" (member "jobs" stats) >= 4.0);
          ignore (expect_ok "shutdown" (reply "6"))))

(* A request line one byte over the cap gets a bad_request reply and the
   next request is still served. The over-long line's bytes are skipped
   as they are read, not kept: serving the pair allocates less than
   64 MiB, about two line buffers of the cap's size. *)
let test_overlong_request_line () =
  let req = Filename.temp_file "placed_long" ".jsonl" in
  let out = Filename.temp_file "placed_long_out" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> List.iter Sys.remove [ req; out ])
    (fun () ->
      let oc = open_out_bin req in
      output_string oc (String.make (Protocol.max_line_bytes + 1) 'x');
      output_string oc "\n{\"id\":\"p\",\"op\":\"ping\"}\n";
      close_out oc;
      let engine = Engine.create () in
      let ic = open_in_bin req and oc = open_out_bin out in
      let a0 = Gc.allocated_bytes () in
      Engine.serve engine ic oc;
      let allocated = Gc.allocated_bytes () -. a0 in
      close_in ic;
      close_out oc;
      let ic = open_in_bin out in
      let replies = List.map Obs.Json.parse_exn (In_channel.input_lines ic) in
      close_in ic;
      match replies with
      | [ long; ping ] ->
          expect_error "over-long line" ~kind:"bad_request" long;
          let message = string_member "message" (member "error" long) in
          Alcotest.(check bool) ("rejected for its length: " ^ message) true
            (String.starts_with ~prefix:"request line longer than" message);
          Alcotest.(check bool) "then the ping is served" true
            (bool_member "pong" (expect_ok "ping" ping));
          Alcotest.(check bool)
            (Printf.sprintf "allocated %.1f MiB (want < 64)" (allocated /. 1048576.0))
            true
            (allocated < 64.0 *. 1048576.0)
      | _ -> Alcotest.failf "want 2 replies, got %d" (List.length replies))

let suite =
  [
    ("protocol parse", `Quick, test_protocol_parse);
    ("protocol replies", `Quick, test_protocol_replies);
    ("eco json roundtrip", `Quick, test_eco_roundtrip);
    ("eco validation atomic", `Quick, test_eco_validation_atomic);
    ("eco random delta", `Quick, test_eco_random);
    ("jobs accounting", `Quick, test_jobs_accounting);
    ("state registry", `Quick, test_state_registry);
    ("engine session", `Quick, test_engine_session);
    ("engine survives divergence", `Quick, test_engine_survives_divergence);
    ("engine faults are per job", `Quick, test_engine_faults_per_job);
    ("engine vs one-shot metrics identity", `Slow, test_engine_metrics_identity);
    ("warm replace quality and speedup", `Slow, test_warm_replace_quality);
    ("daemon stdin session", `Slow, test_daemon_stdin_session);
    ("over-long request line", `Quick, test_overlong_request_line);
  ]
