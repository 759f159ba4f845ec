(* The workload bodies: one closed-loop client, one domain, inputs read
   from the files [Inputs] wrote. Every call into a layer goes through a
   benchmark span (a no-op on [Obs.Ctx.null]); every operation is counted,
   timed outside its output check, and kept as a latency sample only when
   it succeeded and its check passed. *)

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Nearest-rank quantile. *)
let quantile l q =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  a.(min (n - 1) (max 0 (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

(* Mean of the samples left after dropping the lowest and the highest 5%.
   The shared host this was tuned on switches between a fast and a slow
   state every few seconds; a median of samples taken in both states
   jumps from one state's value to the other's as their shares cross
   one half, while a mean moves only in proportion to the shares. The
   trim drops the rare sample hit by a long pause. *)
let trimmed_mean l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  let cut = n / 20 in
  let sum = ref 0.0 in
  for i = cut to n - cut - 1 do
    sum := !sum +. a.(i)
  done;
  !sum /. float_of_int (n - (2 * cut))

(* [agg] over each design's samples, summed over designs. *)
let per_design agg samples =
  let names = List.sort_uniq compare (List.map fst samples) in
  List.fold_left
    (fun acc name -> acc +. agg (List.filter_map (fun (n, v) -> if n = name then Some v else None) samples))
    0.0 names

type run = {
  obs : Obs.Ctx.t;
  mutable attempted : int;
  mutable failed : int;
  mutable setup : (string * float) list; (* per design: seconds per set-up sample *)
  mutable place : (string * float) list; (* per design: seconds per cold placement *)
  mutable replace : (string * float) list; (* per design: seconds per re-placement *)
  mutable retime : float list;
  mutable query : float list;
  mutable tns : float; (* magnitudes summed over designs, or a session median *)
  mutable wns : float;
  mutable hpwl : float;
  mutable pairs : int; (* final pin-pair count summed over Efficient flows *)
  mutable finals : Netlist.Design.t list; (* end-state designs, for the Table I probe *)
}

let create obs =
  {
    obs;
    attempted = 0;
    failed = 0;
    setup = [];
    place = [];
    replace = [];
    retime = [];
    query = [];
    tns = 0.0;
    wns = 0.0;
    hpwl = 0.0;
    pairs = 0;
    finals = [];
  }

let span r name f = Obs.Ctx.span r.obs name f

let fail r what msg =
  r.failed <- r.failed + 1;
  Printf.eprintf "[tdpbench] %s failed: %s\n%!" what msg

let describe = function
  | Util.Errors.Error e -> Util.Errors.message e
  | e -> Printexc.to_string e

(* One operation: [f] is timed, [check] runs after the clock stops. *)
let op r what ?(check = fun _ -> Ok ()) f =
  r.attempted <- r.attempted + 1;
  match
    let t0 = Unix.gettimeofday () in
    let v = f () in
    (v, Unix.gettimeofday () -. t0)
  with
  | exception e ->
      fail r what (describe e);
      None
  | v, dt -> (
      match span r "bench.check" (fun () -> check v) with
      | Ok () -> Some (v, dt)
      | Error msg ->
          fail r what msg;
          None
      | exception e ->
          fail r what (describe e);
          None)

(* Every flow result is re-scored by the common evaluation kit. Checked
   results also feed [tdp.pairs], the final pin-pair count. *)
let scored r d (res : Tdp.Flow.result) =
  (match List.rev res.extraction_rounds with
  | last :: _ -> r.pairs <- r.pairs + last.Tdp.Extraction.num_pairs
  | [] -> ());
  if Evalkit.Metrics.evaluate d = res.metrics then Ok ()
  else Error "re-scored metrics differ from the flow's result"

let add_quality r (m : Evalkit.Metrics.t) =
  r.tns <- r.tns -. m.tns;
  r.wns <- r.wns -. m.wns;
  r.hpwl <- r.hpwl +. m.hpwl

let load r (e : Inputs.entry) =
  op r ("load " ^ e.name) (fun () -> span r "bench.formats.load" (fun () -> Formats.Auto.load e.aux))

(* Timing queries of the paper's extraction command, report_timing_endpoint
   with n = 50, k = 2. *)
let query_n = 50

let query_k = 2

let report tm = Sta.Timer.report_timing_endpoint tm ~n:query_n ~k:query_k

let endpoints paths = List.map (fun (p : Sta.Paths.path) -> (p.endpoint, p.slack)) paths

(* ---- flow workloads: tdp-suite and gp-50k ---- *)

type flows = {
  meth : Tdp.Flow.method_;
  entries : Inputs.entry list;
  min_rounds : int; (* rounds run whatever the time; round 1 places every design cold,
                       later rounds re-place each after its ECO *)
  until : float; (* later rounds go on, a design at a time, until this Unix time *)
  cold_again : bool; (* later rounds also repeat each design's cold placement *)
  retimes : int; (* full re-time samples per timing tick *)
  queries : int; (* warm query samples per timing tick *)
}

(* Every load of a bundle is a set-up sample of its design. *)
let load_sample r (e : Inputs.entry) =
  match load r e with
  | Some (d, dt) ->
      r.setup <- (e.name, dt) :: r.setup;
      Some d
  | None -> None

(* A result that must repeat one recorded earlier for the same key. *)
let repeats r table key (m : Evalkit.Metrics.t) =
  match Hashtbl.find_opt table key with
  | None -> Hashtbl.replace table key m
  | Some first when first = m -> ()
  | Some _ ->
      r.attempted <- r.attempted + 1;
      fail r "repeat" (key ^ ": a repeated placement differs from the first")

(* Timing at the round-1 cold placements, which never change. A tick is
   [retimes] full re-times, each followed by its share of [queries] warm
   queries. One sample re-times or queries every design once, so samples
   are alike even on the eight-design suite. Ticks run after every flow
   of the later rounds, so the timing samples spread over the whole run
   as the placements do. *)
type timing = { tms : Sta.Timer.t list; mutable first : (int * float) list list option }

(* Built and fully timed, so [check_timers] holds even when the run's
   time is up before a tick reaches them. *)
let timers r ds =
  let create d =
    let tm = span r "bench.sta.create" (fun () -> Sta.Timer.create ~obs:r.obs d) in
    Sta.Timer.update tm;
    tm
  in
  { tms = List.map create ds; first = None }

let tick r spec t =
  let same paths =
    let eps = List.map endpoints paths in
    match t.first with
    | None ->
        t.first <- Some eps;
        Ok ()
    | Some f -> if eps = f then Ok () else Error "timing query result changed"
  in
  let query_all () = List.map (fun tm -> span r "bench.sta.query" (fun () -> report tm)) t.tms in
  for _ = 1 to spec.retimes do
    List.iter Sta.Timer.invalidate t.tms;
    (match op r "retime" ~check:same query_all with
    | Some (_, dt) -> r.retime <- dt :: r.retime
    | None -> ());
    for _ = 1 to spec.queries / spec.retimes do
      match op r "query" ~check:same query_all with
      | Some (_, dt) -> r.query <- dt :: r.query
      | None -> ()
    done
  done

(* Each warm timer must agree with a fresh full re-time. *)
let check_timers r t =
  List.iter
    (fun tm -> ignore (op r "timer check" ~check:(fun () -> Oracle.Ref_sta.check_incremental tm) Fun.id))
    t.tms

let cold_place r spec (e : Inputs.entry) d =
  match
    op r ("place " ^ e.name) ~check:(scored r d)
      (fun () -> span r "bench.tdp.flow" (fun () -> Tdp.Flow.run ~obs:r.obs spec.meth d))
  with
  | Some (res, dt) ->
      r.place <- (e.name, dt) :: r.place;
      Some res.Tdp.Flow.metrics
  | None -> None

(* The daemon's replace path on a fresh copy of the design at its cold
   placement: the design's seeded ECO delta, then a warm re-placement.
   Every replace of a design does the same work. *)
let eco_replace r spec replaced (e : Inputs.entry) placement =
  match load_sample r e with
  | None -> ()
  | Some d -> (
      Netlist.Design.restore d placement;
      let apply_eco () =
        match Service.Eco.of_json (Obs.Json.parse_exn (Inputs.read_file e.eco)) with
        | Ok ops -> ignore (Service.Eco.apply d ops)
        | Error msg -> failwith msg
      in
      if op r ("eco " ^ e.name) (fun () -> span r "bench.svc.eco" apply_eco) <> None then
        match
          op r ("replace " ^ e.name) ~check:(scored r d)
            (fun () -> span r "bench.tdp.flow" (fun () -> Tdp.Flow.run ~warm:true ~obs:r.obs spec.meth d))
        with
        | Some (res, dt) ->
            r.replace <- (e.name, dt) :: r.replace;
            repeats r replaced e.name res.metrics
        | None -> ())

let run_flows r spec =
  let placed = Hashtbl.create 8 and replaced = Hashtbl.create 8 in
  Gc.compact ();
  (* Round 1: the cold placements every later operation starts from. *)
  let refs =
    List.filter_map
      (fun (e : Inputs.entry) ->
        match load_sample r e with
        | None -> None
        | Some d -> (
            match cold_place r spec e d with
            | Some m ->
                Hashtbl.replace placed e.name m;
                add_quality r m;
                Some (e, d, Netlist.Design.snapshot d)
            | None -> None))
      spec.entries
  in
  if List.length refs = List.length spec.entries then begin
    r.finals <- List.map (fun (_, d, _) -> d) refs;
    let t = ref (timers r r.finals) in
    tick r spec !t;
    let round = ref 2 in
    let in_time () = !round <= spec.min_rounds || Unix.gettimeofday () < spec.until in
    while in_time () do
      check_timers r !t;
      Gc.compact ();
      t := timers r r.finals;
      List.iter
        (fun ((e : Inputs.entry), _, placement) ->
          if in_time () then begin
            if spec.cold_again then begin
              (match load_sample r e with
              | Some d -> Option.iter (repeats r placed e.name) (cold_place r spec e d)
              | None -> ());
              tick r spec !t
            end;
            eco_replace r spec replaced e placement;
            tick r spec !t
          end)
        refs;
      incr round
    done;
    check_timers r !t
  end

(* ---- svc-eco: a daemon session driven over JSONL ---- *)

type session = {
  entry : Inputs.entry;
  lines : string array; (* replace requests *)
  setup_reps : int; (* set-ups, the session's own included *)
  min_cycles : int; (* the session's quality is the median over these *)
  until : float; (* later cycles go on until this Unix time *)
  burst : int; (* warm queries after each re-time *)
}

let reply_ok reply =
  match Obs.Json.member "ok" reply with
  | Some (Obs.Json.Bool true) -> Ok ()
  | _ -> Error (Obs.Json.to_string reply)

(* One request: decode, dispatch and encode the reply, as the daemon's
   serving loop does. *)
let send r engine what ?(check = fun () -> Ok ()) line =
  op r what
    ~check:(fun reply -> Result.bind (reply_ok reply) check)
    (fun () ->
      let reply = span r "bench.svc.call" (fun () -> Service.Engine.handle_line engine line) in
      ignore (span r "bench.svc.encode" (fun () -> Obs.Json.to_string reply));
      reply)

let entry_of engine name =
  match Service.State.find (Service.Engine.state engine) name with
  | Ok e -> e
  | Error msg -> failwith msg

let last_scored r engine name () =
  let e = entry_of engine name in
  match e.last_result with
  | Some res -> scored r e.design res
  | None -> Error "no placement result"

let warm_timer_agrees engine name () =
  match (entry_of engine name).timer with
  | Some tm -> Oracle.Ref_sta.check_incremental tm
  | None -> Error "no warm timer after a query"

let request ~id ~op params =
  Obs.Json.to_string
    (Obs.Json.Obj
       [ ("id", Obs.Json.String id); ("op", Obs.Json.String op); ("params", Obs.Json.Obj params) ])

let run_session r s =
  let name = s.entry.name in
  let load_line =
    request ~id:"load" ~op:"load"
      [ ("path", Obs.Json.String s.entry.aux); ("name", Obs.Json.String name) ]
  in
  let place_line =
    request ~id:"place" ~op:"place"
      [ ("design", Obs.Json.String name); ("flow", Obs.Json.String "efficient") ]
  in
  let query_line i =
    request ~id:(Printf.sprintf "q%d" i) ~op:"report_timing"
      [
        ("design", Obs.Json.String name);
        ("n", Obs.Json.Int query_n);
        ("k", Obs.Json.Int query_k);
      ]
  in
  (* Set-up: load plus cold place, until the daemon can serve an ECO.
     The first set-up starts the session; the others run on throwaway
     engines spread over the cycles, so set-up samples span the run. *)
  let setup () =
    Gc.compact ();
    let e = Service.Engine.create ~obs:r.obs () in
    match send r e "load" load_line with
    | None -> None
    | Some (_, load_dt) -> (
        match send r e "place" ~check:(last_scored r e name) place_line with
        | None -> None
        | Some (_, dt) ->
            r.setup <- (name, load_dt +. dt) :: r.setup;
            r.place <- (name, dt) :: r.place;
            Some e)
  in
  let t_start = Unix.gettimeofday () in
  match setup () with
  | None -> ()
  | Some e ->
      Gc.compact ();
      let q = ref 0 and quality = ref [] in
      let next_query () =
        incr q;
        query_line !q
      in
      (* Set-up k of the others runs once k / setup_reps of the time is up. *)
      let setups = ref 1 and c = ref 0 in
      let due () =
        t_start +. (float_of_int !setups /. float_of_int s.setup_reps *. (s.until -. t_start))
      in
      while !c < s.min_cycles || Unix.gettimeofday () < s.until do
        if !setups < s.setup_reps && Unix.gettimeofday () >= due () then begin
          incr setups;
          ignore (setup ())
        end;
        let line = s.lines.(!c mod Array.length s.lines) in
        (match send r e "replace" ~check:(last_scored r e name) line with
        | Some (_, dt) -> (
            r.replace <- (name, dt) :: r.replace;
            match (entry_of e name).last_result with
            | Some res when !c < s.min_cycles -> quality := res.metrics :: !quality
            | _ -> ())
        | None -> ());
        (* The flow invalidated the warm timer: this query re-times. *)
        (match send r e "retime" (next_query ()) with
        | Some (_, dt) -> r.retime <- dt :: r.retime
        | None -> ());
        for _ = 1 to s.burst do
          match send r e "query" ~check:(warm_timer_agrees e name) (next_query ()) with
          | Some (_, dt) -> r.query <- dt :: r.query
          | None -> ()
        done;
        incr c
      done;
      (* One session's quality swings from cycle to cycle with its ECO
         deltas; the median over the first cycles repeats across seeds. *)
      let med f = if !quality = [] then 0.0 else median (List.map f !quality) in
      r.tns <- med (fun (m : Evalkit.Metrics.t) -> -.m.tns);
      r.wns <- med (fun (m : Evalkit.Metrics.t) -> -.m.wns);
      r.hpwl <- med (fun (m : Evalkit.Metrics.t) -> m.hpwl);
      r.finals <- [ (entry_of e name).design ]
