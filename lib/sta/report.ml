(** The two critical-path extraction commands compared in the paper
    (Sec. III-B, Table I).

    - [report_timing graph arr ~n]: OpenTimer-style. Take the [n] worst
      endpoints; eagerly extract up to [n] worst paths from each (an
      O(n^2) candidate pool); keep the globally worst [n]. The returned
      set concentrates on a handful of endpoints — the pathology Table I
      quantifies.
    - [report_timing_endpoint graph arr ~n ~k]: the paper's method. For
      each of the [n] worst endpoints extract its [k] worst paths —
      O(n*k) work and every investigated endpoint is covered.

    Both only consider *failing* endpoints when [failing_only] (the
    paper's usage: n = number of failing endpoints). *)

type stats = {
  num_paths : int;
  num_endpoints : int; (* distinct endpoints covered by the result *)
  num_pin_pairs : int; (* distinct net-arc (driver, sink) pairs on paths *)
  elapsed : float; (* seconds *)
}

(* How many of the ranked endpoints a command investigates: the first
   [n], failing ones only when [failing_only]. *)
let num_investigated (prop : Propagate.t) (graph : Graph.t) ~n ~failing_only =
  let avail =
    if failing_only then Propagate.num_failing prop graph else Array.length graph.endpoints
  in
  max 0 (min n avail)

(* Distinct (from, to) pairs over *net* arcs of the given paths: cell-arc
   pairs have fixed geometry (same cell) so the placement objective only
   ever uses net-arc pairs. *)
let count_pin_pairs (graph : Graph.t) paths =
  let tbl = Hashtbl.create 4096 in
  List.iter
    (fun (p : Paths.path) ->
      Array.iter (fun a -> if Graph.is_net_arc graph a then Hashtbl.replace tbl a ()) p.arcs)
    paths;
  Hashtbl.length tbl

let count_endpoints paths =
  let tbl = Hashtbl.create 1024 in
  List.iter (fun (p : Paths.path) -> Hashtbl.replace tbl p.Paths.endpoint ()) paths;
  Hashtbl.length tbl

let stats_of (graph : Graph.t) paths ~elapsed =
  {
    num_paths = List.length paths;
    num_endpoints = count_endpoints paths;
    num_pin_pairs = count_pin_pairs graph paths;
    elapsed;
  }

(** OpenTimer-style global top-n extraction (see module doc). The optional
    [cap] bounds the candidate pool to keep pathological calls tractable.
    The endpoint searches run one after another in [wss.(0)]. *)
let report_timing ?(failing_only = true) ?(cap = 4_000_000) wss (prop : Propagate.t)
    (graph : Graph.t) ~n =
  let m = num_investigated prop graph ~n ~failing_only in
  let ranked = Propagate.ranking prop graph ~n:m in
  let budget = ref cap in
  let candidates =
    List.concat_map
      (fun e ->
        if !budget <= 0 then []
        else begin
          let k = min n !budget in
          let ps = Paths.k_worst wss.(0) graph prop.Propagate.arr ~endpoint:e ~k in
          budget := !budget - List.length ps;
          ps
        end)
      (List.init m (Array.get ranked))
  in
  (* Total order (slack, endpoint, pins): reproducible under slack ties. *)
  let sorted = List.sort Paths.compare_by_slack candidates in
  List.filteri (fun i _ -> i < n) sorted

(** The paper's extraction: k worst paths for each of the n worst
    endpoints; every endpoint investigated is represented. Endpoints are
    independent best-first searches over read-only state, so the
    fan-out is parallel across domains, each chunk searching in its own
    workspace [wss.(chunk)] (result order — and therefore the result
    itself — is identical to the sequential enumeration). *)
let report_timing_endpoint ?(failing_only = true) wss (prop : Propagate.t) (graph : Graph.t) ~n
    ~k =
  let m = num_investigated prop graph ~n ~failing_only in
  let ranked = Propagate.ranking prop graph ~n:m in
  let per_ep = Array.make m [] in
  Util.Parallel.for_chunks prop.Propagate.par ~grain:2 ~name:"extract.endpoints" ~n:m
    (fun ~chunk ~lo ~hi ->
      let ws = wss.(chunk) in
      for i = lo to hi - 1 do
        per_ep.(i) <- Paths.k_worst ws graph prop.Propagate.arr ~endpoint:ranked.(i) ~k
      done);
  List.concat (Array.to_list per_ep)

(** OpenTimer-style textual path report: one line per pin with the arc
    increment and cumulative arrival, ending with the slack summary. *)
let pp_path fmt (graph : Graph.t) (p : Paths.path) =
  let d = graph.Graph.design in
  let label pid =
    Printf.sprintf "%s.%s"
      (Netlist.Design.cell_name d d.Netlist.Design.pin_owner.(pid))
      (Netlist.Design.pin_name d pid)
  in
  Format.fprintf fmt "Startpoint: %s@." (label p.Paths.pins.(0));
  Format.fprintf fmt "Endpoint:   %s@." (label p.Paths.endpoint);
  Format.fprintf fmt "  %-28s %10s %10s@." "Point" "Incr" "Arrival";
  let arrival = ref graph.Graph.start_arrival.(p.Paths.pins.(0)) in
  Format.fprintf fmt "  %-28s %10s %10.2f@." (label p.Paths.pins.(0)) "-" !arrival;
  Array.iteri
    (fun i a ->
      arrival := !arrival +. graph.Graph.arc_delay.(a);
      let kind = if Graph.is_net_arc graph a then "(net)" else "(cell)" in
      Format.fprintf fmt "  %-22s %-5s %10.2f %10.2f@."
        (label p.Paths.pins.(i + 1))
        kind graph.Graph.arc_delay.(a) !arrival)
    p.Paths.arcs;
  Format.fprintf fmt "  required %.2f, arrival %.2f, slack %.2f@."
    graph.Graph.end_required.(p.Paths.endpoint)
    p.Paths.arrival p.Paths.slack
