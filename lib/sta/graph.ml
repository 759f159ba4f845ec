(** The timing graph: a DAG over design pins.

    Arcs:
    - net arcs: net driver pin -> each sink pin (wire + driver delay);
    - cell arcs: each input pin -> each output pin of a combinational cell.

    Flip-flops cut the graph: Q pins are startpoints (launch at clk-to-Q),
    D pins are endpoints (setup check against the clock period). Primary
    input pads start at arrival 0, primary output pads are endpoints with
    required time = clock period.

    The structure is static over a placement run; only arc delays change,
    so adjacency (CSR) and the topological order are built once. *)

open Netlist

type t = {
  design : Design.t;
  num_arcs : int;
  num_net_arcs : int; (* net arcs are arcs [0, num_net_arcs) *)
  arc_from : int array;
  arc_to : int array;
  arc_delay : float array; (* updated by Delay.update each round *)
  in_start : int array; (* CSR: in-arcs of pin p are in_arc.[in_start.(p) .. in_start.(p+1)-1] *)
  in_arc : int array;
  out_start : int array;
  out_arc : int array;
  topo : int array; (* pin ids, topological (sources first) *)
  is_startpoint : bool array;
  is_endpoint : bool array;
  endpoints : int array;
  start_arrival : float array; (* valid where is_startpoint *)
  end_required : float array; (* valid where is_endpoint *)
}

let num_pins t = Design.num_pins t.design

let is_net_arc t a = a < t.num_net_arcs

(* Net n's arcs follow the sinks of the nets before it. Every net has one
   driver ([Builder] rejects undriven nets), so n nets before it own
   [net_pin_off.(n) - n] sinks. *)
let net_arc t ~net ~sink = t.design.Design.net_pin_off.(net) - net + sink

exception Combinational_loop

(* Marks the start/end points and writes their boundary conditions,
   the only graph state derived from the design's timing constraints
   rather than its structure. A constraint change (clock retarget ECO)
   reruns it in place: the marks are structural and come out the same,
   and adjacency, topological order and arc delays all survive. *)
let set_boundary (d : Design.t) ~is_startpoint ~is_endpoint ~start_arrival ~end_required =
  let start pid v =
    is_startpoint.(pid) <- true;
    start_arrival.(pid) <- v
  and end_ pid v =
    is_endpoint.(pid) <- true;
    end_required.(pid) <- v
  in
  for cid = 0 to Design.num_cells d - 1 do
    for k = d.cell_pin_off.(cid) to d.cell_pin_off.(cid + 1) - 1 do
      let pid = d.cell_pin_ids.(k) in
      match Design.kind d cid with
      | Design.Logic when Design.is_ff d cid -> (
          let lc = Design.libcell d cid in
          match Design.pin_dir d pid with
          | Design.Out -> start pid lc.Libcell.clk_to_q
          | Design.In -> end_ pid (d.clock_period -. lc.Libcell.setup))
      | Design.Input_pad -> start pid d.input_delay
      | Design.Output_pad -> end_ pid (d.clock_period -. d.output_delay)
      | Design.Logic | Design.Blockage -> ()
    done
  done

let refresh_boundary t =
  set_boundary t.design ~is_startpoint:t.is_startpoint ~is_endpoint:t.is_endpoint
    ~start_arrival:t.start_arrival ~end_required:t.end_required

(* The cell arcs, numbered from [a]: per combinational cell, each input
   pin -> each output pin, both in pin order. Writes them into
   [arc_from]/[arc_to] unless those are empty (the counting pass) and
   returns the next arc id. The loops index the design's CSR directly:
   a closure per cell would allocate more than the graph itself. *)
let cell_arcs (d : Design.t) ~arc_from ~arc_to a =
  let a = ref a and write = Array.length arc_from > 0 in
  for cid = 0 to Design.num_cells d - 1 do
    if Design.kind d cid = Design.Logic && not (Design.is_ff d cid) then begin
      let lo = d.cell_pin_off.(cid) and hi = d.cell_pin_off.(cid + 1) - 1 in
      for i = lo to hi do
        let pi = d.cell_pin_ids.(i) in
        if Design.pin_dir d pi = Design.In then
          for o = lo to hi do
            let po = d.cell_pin_ids.(o) in
            if Design.pin_dir d po = Design.Out then begin
              if write then (arc_from.(!a) <- pi; arc_to.(!a) <- po);
              incr a
            end
          done
      done
    end
  done;
  !a

(* CSR over pins of the arcs keyed by [pin_of] (arc -> pin). *)
let build_csr ~np pin_of =
  let num_arcs = Array.length pin_of in
  let start = Array.make (np + 1) 0 in
  for a = 0 to num_arcs - 1 do
    start.(pin_of.(a) + 1) <- start.(pin_of.(a) + 1) + 1
  done;
  for p = 1 to np do
    start.(p) <- start.(p) + start.(p - 1)
  done;
  let fill = Array.copy start in
  let adj = Array.make num_arcs 0 in
  for a = 0 to num_arcs - 1 do
    adj.(fill.(pin_of.(a))) <- a;
    fill.(pin_of.(a)) <- fill.(pin_of.(a)) + 1
  done;
  (start, adj)

let build (d : Design.t) =
  let np = Design.num_pins d and nn = Design.num_nets d in
  (* Counting pass: one net arc per sink (every net has one driver), then
     the cell arcs. The fill pass writes the net arcs net by net in sink
     order (the layout {!net_arc} reads), then the cell arcs. *)
  let num_net_arcs = d.net_pin_off.(nn) - nn in
  let num_arcs = cell_arcs d ~arc_from:[||] ~arc_to:[||] num_net_arcs in
  let arc_from = Array.make num_arcs 0 in
  let arc_to = Array.make num_arcs 0 in
  for nid = 0 to nn - 1 do
    for k = d.net_pin_off.(nid) + 1 to d.net_pin_off.(nid + 1) - 1 do
      arc_from.(k - nid - 1) <- d.net_driver.(nid);
      arc_to.(k - nid - 1) <- d.net_pin_ids.(k)
    done
  done;
  ignore (cell_arcs d ~arc_from ~arc_to num_net_arcs);
  let in_start, in_arc = build_csr ~np arc_to in
  let out_start, out_arc = build_csr ~np arc_from in
  (* Kahn topological sort; a leftover pin means a combinational loop. *)
  let indeg = Array.init np (fun p -> in_start.(p + 1) - in_start.(p)) in
  let topo = Array.make np 0 in
  let head = ref 0 and tail = ref 0 in
  for p = 0 to np - 1 do
    if indeg.(p) = 0 then begin
      topo.(!tail) <- p;
      incr tail
    end
  done;
  while !head < !tail do
    let p = topo.(!head) in
    incr head;
    for i = out_start.(p) to out_start.(p + 1) - 1 do
      let a = out_arc.(i) in
      let q = arc_to.(a) in
      indeg.(q) <- indeg.(q) - 1;
      if indeg.(q) = 0 then begin
        topo.(!tail) <- q;
        incr tail
      end
    done
  done;
  if !tail <> np then raise Combinational_loop;
  let is_startpoint = Array.make np false in
  let is_endpoint = Array.make np false in
  let start_arrival = Array.make np 0.0 in
  let end_required = Array.make np 0.0 in
  set_boundary d ~is_startpoint ~is_endpoint ~start_arrival ~end_required;
  let num_endpoints = Array.fold_left (fun n e -> if e then n + 1 else n) 0 is_endpoint in
  let endpoints = Array.make num_endpoints 0 in
  let k = ref 0 in
  Array.iteri (fun p e -> if e then (endpoints.(!k) <- p; incr k)) is_endpoint;
  {
    design = d;
    num_arcs;
    num_net_arcs;
    arc_from;
    arc_to;
    arc_delay = Array.make num_arcs 0.0;
    in_start;
    in_arc;
    out_start;
    out_arc;
    topo;
    is_startpoint;
    is_endpoint;
    endpoints;
    start_arrival;
    end_required;
  }
