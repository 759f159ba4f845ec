(** Request engine (see the interface). *)

type t = {
  state : State.t;
  jobs : Jobs.t;
  obs : Obs.Ctx.t;
  heartbeat : Obs.Heartbeat.t option;
  mutable shutdown : bool;
}

let create ?(obs = Obs.Ctx.null) ?heartbeat () =
  { state = State.create (); jobs = Jobs.create (); obs; heartbeat; shutdown = false }

let state t = t.state

let jobs t = t.jobs

let shutdown_requested t = t.shutdown

(* ---- op helpers ---- *)

let required_string req key =
  match Protocol.param_string req key with
  | Some s when s <> "" -> s
  | _ ->
      Util.Errors.config_error ~what:("params." ^ key)
        (Printf.sprintf "op %S needs a non-empty string %S param" req.Protocol.op key)

let find_entry t req =
  let name = required_string req "design" in
  match State.find t.state name with
  | Ok entry -> entry
  | Error msg -> Util.Errors.config_error ~what:"params.design" msg

let design_summary name (d : Netlist.Design.t) =
  Obs.Json.Obj
    [
      ("name", Obs.Json.String name);
      ("design", Obs.Json.String d.Netlist.Design.name);
      ("cells", Obs.Json.Int (Netlist.Design.num_cells d));
      ("nets", Obs.Json.Int (Netlist.Design.num_nets d));
      ("pins", Obs.Json.Int (Netlist.Design.num_pins d));
      ("clock_period", Obs.Json.Float d.Netlist.Design.clock_period);
    ]

let op_load t req =
  let design =
    match (Protocol.param_string req "path", Protocol.param_string req "suite") with
    | Some path, None ->
        let lef = Protocol.param_string req "lef" in
        let clock = Protocol.param_float req "clock" in
        let wire_rc =
          match Protocol.param_string req "wire_rc" with
          | None -> None
          | Some s -> (
              match Rctree.Wire_rc.parse s with
              | Ok rc -> Some rc
              | Error msg -> Util.Errors.config_error ~what:"params.wire_rc" msg)
        in
        (* Auto.load raises the same taxonomy as bin/place: malformed
           bytes are a parse_error reply, not an invalid_design. *)
        Formats.Auto.load ?lef ?wire_rc ?clock path
    | None, Some short ->
        let scale = Protocol.param_float req "scale" in
        Workloads.Suite.load ?scale short
    | _ ->
        Util.Errors.config_error ~what:"params"
          "load needs exactly one of \"path\" or \"suite\""
  in
  let name =
    match Protocol.param_string req "name" with
    | Some n when n <> "" -> n
    | _ -> design.Netlist.Design.name
  in
  ignore (State.add t.state ~name design);
  design_summary name design

let eco_json (a : Eco.applied) =
  Obs.Json.Obj
    [
      ("moved", Obs.Json.Int (List.length a.Eco.moved));
      ( "clock",
        match a.Eco.clock with Some p -> Obs.Json.Float p | None -> Obs.Json.Null );
      ("rc_changed", Obs.Json.Bool a.Eco.rc_changed);
      ("reweighted", Obs.Json.Int a.Eco.reweighted);
    ]

let run_flow t req ~fault ~warm (entry : State.entry) =
  let meth =
    Tdp.Flow.method_of_string (Option.value ~default:"efficient" (Protocol.param_string req "flow"))
  in
  (* Default matches Tdp.Flow.run's, so a daemon job with no explicit
     seed places identically to the one-shot binaries. *)
  let seed = Option.value ~default:1 (Protocol.param_int req "seed") in
  let legalize = Option.value ~default:true (Protocol.param_bool req "legalize") in
  let result =
    Tdp.Flow.run ~seed ~warm ~legalize ~obs:t.obs ?heartbeat:t.heartbeat ~fault meth
      entry.State.design
  in
  entry.State.placed <- true;
  entry.State.last_result <- Some result;
  entry.State.generation <- entry.State.generation + 1;
  (* The flow moved everything: a warm timer's arc delays are all stale. *)
  (match entry.State.timer with Some tm -> Sta.Timer.invalidate tm | None -> ());
  result

let op_place t req ~fault =
  let entry = find_entry t req in
  Tdp.Flow.result_to_json (run_flow t req ~fault ~warm:false entry)

let op_replace t req ~fault =
  let entry = find_entry t req in
  if not entry.State.placed then
    Util.Errors.config_error ~what:"replace"
      (Printf.sprintf "design %S has no placement yet; run place first"
         (required_string req "design"));
  let delta =
    match Protocol.param req "delta" with
    | Some j -> (
        match Eco.of_json j with
        | Ok ops -> ops
        | Error msg -> Util.Errors.config_error ~what:"params.delta" msg)
    | None -> (
        (* Convenience for drills and benches: a synthesized random delta. *)
        match Protocol.param_float req "random_frac" with
        | Some frac ->
            let seed = Option.value ~default:7 (Protocol.param_int req "random_seed") in
            Eco.random ~seed ~frac entry.State.design
        | None ->
            Util.Errors.config_error ~what:"params"
              "replace needs a \"delta\" op list or a \"random_frac\" number")
  in
  let applied = Eco.apply entry.State.design delta in
  State.note_eco entry applied;
  let result = run_flow t req ~fault ~warm:true entry in
  Obs.Json.Obj [ ("eco", eco_json applied); ("result", Tdp.Flow.result_to_json result) ]

let path_json (d : Netlist.Design.t) (p : Sta.Paths.path) =
  Obs.Json.Obj
    [
      ("endpoint", Obs.Json.String (Netlist.Design.pin_name d p.Sta.Paths.endpoint));
      ("slack", Obs.Json.Float p.Sta.Paths.slack);
      ("arrival", Obs.Json.Float p.Sta.Paths.arrival);
      ( "pins",
        Obs.Json.List
          (Array.to_list p.Sta.Paths.pins
          |> List.map (fun pin -> Obs.Json.String (Netlist.Design.pin_name d pin))) );
    ]

let op_report_timing t req =
  let entry = find_entry t req in
  let n = Option.value ~default:10 (Protocol.param_int req "n") in
  let k = Option.value ~default:1 (Protocol.param_int req "k") in
  let failing_only = Option.value ~default:false (Protocol.param_bool req "failing_only") in
  if n <= 0 || k <= 0 then
    Util.Errors.config_error ~what:"params" "report_timing needs n > 0 and k > 0";
  let timer = State.timer ~obs:t.obs entry in
  let paths = Sta.Timer.report_timing_endpoint ~failing_only timer ~n ~k in
  Obs.Json.Obj
    [
      ("wns", Obs.Json.Float (Sta.Timer.wns timer));
      ("tns", Obs.Json.Float (Sta.Timer.tns timer));
      ("num_failing", Obs.Json.Int (Sta.Timer.num_failing_endpoints timer));
      ("paths", Obs.Json.List (List.map (path_json entry.State.design) paths));
    ]

let op_stats t =
  let designs =
    List.map
      (fun name ->
        match State.find t.state name with
        | Error _ -> (name, Obs.Json.Null)
        | Ok entry ->
            ( name,
              Obs.Json.Obj
                [
                  ("placed", Obs.Json.Bool entry.State.placed);
                  ("generation", Obs.Json.Int entry.State.generation);
                  ("warm_timer", Obs.Json.Bool (entry.State.timer <> None));
                ] ))
      (State.names t.state)
  in
  Obs.Json.Obj [ ("jobs", Jobs.stats_json t.jobs); ("designs", Obs.Json.Obj designs) ]

let op_unload t req =
  let name = required_string req "name" in
  Obs.Json.Obj [ ("unloaded", Obs.Json.Bool (State.unload t.state name)) ]

let dispatch t ~fault (req : Protocol.request) =
  match req.Protocol.op with
  | "ping" -> Obs.Json.Obj [ ("pong", Obs.Json.Bool true) ]
  | "load" -> op_load t req
  | "place" -> op_place t req ~fault
  | "replace" -> op_replace t req ~fault
  | "report_timing" -> op_report_timing t req
  | "stats" -> op_stats t
  | "unload" -> op_unload t req
  | "shutdown" ->
      t.shutdown <- true;
      Obs.Json.Obj [ ("stopping", Obs.Json.Bool true) ]
  | op ->
      Util.Errors.config_error ~what:"op"
        ("unknown op " ^ op
       ^ " (known: ping load place replace report_timing stats unload shutdown)")

let handle ?(fault = []) t (req : Protocol.request) =
  (* Each request gets a fresh heartbeat epoch and its own span; no
     failure below may escape — the daemon outlives every job. *)
  (match t.heartbeat with Some hb -> Obs.Heartbeat.reset hb | None -> ());
  match
    Obs.Ctx.span t.obs
      ~attrs:[ ("op", Obs.Json.String req.Protocol.op); ("id", Obs.Json.String req.Protocol.id) ]
      ("svc." ^ req.Protocol.op)
      (fun () -> Jobs.run t.jobs ~op:req.Protocol.op (fun () -> dispatch t ~fault req))
  with
  | result -> Protocol.ok_reply ~id:req.Protocol.id result
  | exception Util.Errors.Error e -> Protocol.error_reply ~id:req.Protocol.id e
  | exception e ->
      Protocol.raw_error_reply ~id:req.Protocol.id ~kind:"internal"
        ~message:(Printexc.to_string e)

let handle_line t line =
  match Protocol.parse_request line with
  | Ok req -> handle t req
  | Error msg -> Protocol.raw_error_reply ~id:"" ~kind:"bad_request" ~message:msg

let serve t ic oc =
  let r = Protocol.reader ic in
  let reply json =
    try
      output_string oc (Obs.Json.to_string json);
      output_char oc '\n';
      flush oc
    with Sys_error _ -> () (* client went away mid-reply *)
  in
  let rec loop () =
    if not t.shutdown then
      match Protocol.read_line r with
      | Protocol.Eof -> ()
      | Protocol.Too_long ->
          reply
            (Protocol.raw_error_reply ~id:"" ~kind:"bad_request"
               ~message:
                 (Printf.sprintf "request line longer than %d bytes" Protocol.max_line_bytes));
          loop ()
      | Protocol.Line line when String.trim line = "" -> loop ()
      | Protocol.Line line ->
          reply (handle_line t line);
          loop ()
  in
  loop ()
