(** Summarise a JSONL trace produced by [place --trace-out] into a
    Fig. 4-style component table: per span name, invocation count, total
    and self wall time (total minus the time spent in child spans), plus
    the recorded counters and gauges. Also exports the span timeline as
    Chrome trace-event JSON (load in chrome://tracing or Perfetto) and as
    folded stacks for flamegraph.pl.

    Usage:
      trace_report run.jsonl [--top N]
      trace_report run.jsonl --chrome-trace run.trace.json
      trace_report run.jsonl --flamegraph run.folded *)

open Cmdliner

let mem_str k j = Option.bind (Obs.Json.member k j) Obs.Json.to_string_opt
let mem_int k j = Option.bind (Obs.Json.member k j) Obs.Json.to_int
let mem_float k j = Option.bind (Obs.Json.member k j) Obs.Json.to_float

let parse_line lineno line =
  match Obs.Json.parse line with
  | Ok j -> Some j
  | Error e ->
      Obs.Log.warn "line %d: unparseable JSON (%s), skipped" lineno e;
      None

let load path =
  let ic = open_in path in
  let spans = ref [] and metrics = ref [] in
  (try
     let lineno = ref 0 in
     while true do
       let line = input_line ic in
       incr lineno;
       if String.trim line <> "" then
         match parse_line !lineno line with
         | None -> ()
         | Some j -> (
             match mem_str "type" j with
             | Some "span" ->
                 let geti k = match mem_int k j with Some v -> v | None -> -1 in
                 let getf k = match mem_float k j with Some v -> v | None -> 0.0 in
                 let name = match mem_str "name" j with Some s -> s | None -> "?" in
                 let attrs =
                   match Obs.Json.member "attrs" j with
                   | Some (Obs.Json.Obj kvs) -> kvs
                   | _ -> []
                 in
                 let s =
                   Obs.Span.make ~id:(geti "id") ~parent:(geti "parent") ~name ~start:(getf "t0")
                     ~attrs
                 in
                 s.Obs.Span.dur <- getf "dur";
                 spans := s :: !spans
             | Some "metric" -> metrics := j :: !metrics
             | _ -> Obs.Log.warn "line %d: unknown record type, skipped" !lineno)
     done
   with End_of_file -> close_in ic);
  (List.rev !spans, List.rev !metrics)

(* Per-name count / total / self / max through the same aggregator a
   live run uses. The file holds spans in completion order (children
   before their parent), which is the order [Obs.Agg.record] needs. *)
let summarize spans =
  let agg = Obs.Agg.create () in
  List.iter (Obs.Agg.record agg) spans;
  Obs.Agg.stats agg |> List.sort (fun (_, (a : Obs.Agg.stat)) (_, b) -> compare b.total a.total)

let print_spans spans top =
  let rows = summarize spans in
  let wall =
    List.fold_left
      (fun acc (s : Obs.Span.t) -> if s.parent < 0 then acc +. s.dur else acc)
      0.0 spans
  in
  let tbl =
    Util.Tablefmt.create ~title:"Span summary (component breakdown)"
      ~headers:[ "span"; "count"; "total s"; "self s"; "max s"; "% wall" ]
      ~aligns:[ Left; Right; Right; Right; Right; Right ]
  in
  let shown = if top > 0 then List.filteri (fun i _ -> i < top) rows else rows in
  List.iter
    (fun (name, (st : Obs.Agg.stat)) ->
      Util.Tablefmt.add_row tbl
        [
          name;
          string_of_int st.count;
          Util.Tablefmt.fmt_float ~prec:3 st.total;
          Util.Tablefmt.fmt_float ~prec:3 st.self;
          Util.Tablefmt.fmt_float ~prec:3 st.dmax;
          (if wall > 0.0 then Util.Tablefmt.fmt_float ~prec:1 (100.0 *. st.total /. wall) else "-");
        ])
    shown;
  Util.Tablefmt.print tbl;
  if top > 0 && List.length rows > top then
    Printf.printf "(%d more span names; raise --top to see them)\n" (List.length rows - top);
  Printf.printf "spans: %d   root wall time: %.3f s\n" (List.length spans) wall

let print_metrics metrics =
  if metrics <> [] then begin
    let tbl =
      Util.Tablefmt.create ~title:"Metrics" ~headers:[ "name"; "kind"; "value" ]
        ~aligns:[ Left; Left; Right ]
    in
    List.iter
      (fun j ->
        let name = match mem_str "name" j with Some s -> s | None -> "?" in
        let kind = match mem_str "kind" j with Some s -> s | None -> "?" in
        let value =
          match kind with
          | "counter" | "gauge" -> (
              match mem_float "value" j with
              | Some v -> Util.Tablefmt.fmt_float ~prec:3 v
              | None -> "-")
          | "histogram" -> (
              match (mem_float "count" j, mem_float "p50" j, mem_float "p99" j) with
              | Some n, Some p50, Some p99 ->
                  Printf.sprintf "n=%.0f p50=%.3g p99=%.3g" n p50 p99
              | _ -> "-")
          | _ -> "-"
        in
        Util.Tablefmt.add_row tbl [ name; kind; value ])
      metrics;
    Util.Tablefmt.print tbl
  end

let write_file path content =
  let oc = open_out path in
  output_string oc content;
  close_out oc

let run path top chrome_out flame_out =
  let spans, metrics = load path in
  if spans = [] && metrics = [] then Obs.Log.warn "%s: no span or metric records found" path;
  print_spans spans top;
  print_metrics metrics;
  (match chrome_out with
  | Some out ->
      let doc = Obs.Timeline.to_chrome_trace ~process_name:"place" spans in
      write_file out (Obs.Json.to_string doc ^ "\n");
      Printf.printf "wrote Chrome trace (%d events) to %s — load in chrome://tracing or Perfetto\n"
        (List.length spans + 1) out
  | None -> ());
  match flame_out with
  | Some out ->
      let folded = Obs.Timeline.to_folded spans in
      write_file out (Obs.Timeline.folded_to_string folded);
      Printf.printf "wrote %d folded stacks to %s — render with flamegraph.pl\n"
        (List.length folded) out
  | None -> ()

let path = Arg.(required & pos 0 (some file) None & info [] ~docv:"TRACE.jsonl" ~doc:"Trace file.")

let top =
  Arg.(value & opt int 0 & info [ "top" ] ~docv:"N" ~doc:"Show only the N hottest span names.")

let chrome_out =
  Arg.(value & opt (some string) None
       & info [ "chrome-trace" ] ~docv:"FILE"
           ~doc:"Export the span timeline as Chrome trace-event JSON.")

let flame_out =
  Arg.(value & opt (some string) None
       & info [ "flamegraph" ] ~docv:"FILE"
           ~doc:"Export folded stacks (flamegraph.pl input).")

let cmd =
  let doc = "summarise a place --trace-out JSONL trace" in
  Cmd.v (Cmd.info "trace_report" ~doc) Term.(const run $ path $ top $ chrome_out $ flame_out)

let () = exit (Cmd.eval cmd)
