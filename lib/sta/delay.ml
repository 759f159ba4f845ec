(** Delay calculation: refreshes every arc delay and pin slew from the
    current placement.

    Net arcs (driver -> sink):
      delay = R_driver * C_net_total + Elmore(driver -> sink)
    Cell arcs (input -> output of a combinational cell):
      delay = intrinsic + slew_sens * slew(input)
    Slews:
      slew(output pin) = slew_base + slew_load * C_net_total
      slew(sink pin)   = slew(driver) + wire_slew_factor * wire_delay

    Output slew depends only on load (never on input slew), so one pass
    over nets followed by one pass over cell arcs is exact — no fixed-point
    iteration is needed. *)

open Netlist

type topology = Rctree.Steiner.topology = Star | Steiner_tree

(* Primary-input pads drive their net through a nominal pad driver. *)
let pad_drive_res = 5.0

let pad_slew_base = 10.0

let pad_slew_load = 0.5

(* PERI-style degradation: sink slew grows with the wire's Elmore delay. *)
let wire_slew_factor = 0.69

let driver_params (d : Design.t) pin_id =
  let owner = d.pin_owner.(pin_id) in
  match Design.kind d owner with
  | Design.Logic ->
      let lc = Design.libcell d owner in
      (lc.Libcell.drive_res, lc.Libcell.slew_base, lc.Libcell.slew_load)
  | Design.Input_pad -> (pad_drive_res, pad_slew_base, pad_slew_load)
  | Design.Output_pad | Design.Blockage -> invalid_arg "Delay.driver_params: not a driver"

(** Scratch state reused across update rounds. *)
type t = {
  graph : Graph.t;
  topology : topology;
  slew : float array; (* per pin *)
  net_cap : float array; (* per net: total load seen by the driver *)
  net_wirelen : float array; (* per net: routed (tree) wirelength *)
  par : Util.Parallel.t;
  workspaces : Rctree.Workspace.t array; (* one per chunk; [update_moved] uses the first *)
  dirty_stamp : int array;
  mutable epoch : int;
  fault : (float -> float) option;
}

let create ?fault ~par graph ~topology =
  let d = graph.Graph.design in
  {
    graph;
    topology;
    slew = Array.make (Graph.num_pins graph) 0.0;
    net_cap = Array.make (Design.num_nets d) 0.0;
    net_wirelen = Array.make (Design.num_nets d) 0.0;
    par;
    workspaces = Array.init (Util.Parallel.domains par) (fun _ -> Rctree.Workspace.create ());
    dirty_stamp = Array.make (Design.num_nets d) 0;
    epoch = 0;
    fault;
  }

(* Write a net's arcs and slews from the Elmore pass in [ws]. The driver
   parameters arrive boxed (library record fields or the pad constants),
   so passing them costs no allocation. *)
let write_net t (ws : Rctree.Workspace.t) nid driver drive_res slew_base slew_load =
  let d = t.graph.Graph.design in
  let arc_delay = t.graph.Graph.arc_delay in
  let total_cap = ws.sums.(0) in
  t.net_cap.(nid) <- total_cap;
  t.net_wirelen.(nid) <- ws.sums.(1);
  let drv_slew = slew_base +. (slew_load *. total_cap) in
  t.slew.(driver) <- drv_slew;
  let base = Graph.net_arc t.graph ~net:nid ~sink:0 and off = d.net_pin_off.(nid) + 1 in
  for k = 0 to d.net_pin_off.(nid + 1) - off - 1 do
    let wire_d = ws.delay.(ws.node_of_term.(k + 1)) in
    arc_delay.(base + k) <- (drive_res *. total_cap) +. wire_d;
    t.slew.(d.net_pin_ids.(off + k)) <- drv_slew +. (wire_slew_factor *. wire_d)
  done

(* Refresh one net: topology, Elmore, net arc delays, driver/sink slews.
   Allocation-free once [ws] has grown to the net's degree. *)
let update_net t ws nid =
  let d = t.graph.Graph.design in
  let driver = d.net_driver.(nid) in
  let off = d.net_pin_off.(nid) + 1 in
  let nsinks = d.net_pin_off.(nid + 1) - off in
  Rctree.Workspace.reserve ws (nsinks + 1);
  let owner = d.pin_owner.(driver) in
  ws.tx.(0) <- d.x.{owner} +. d.pin_off_x.{driver};
  ws.ty.(0) <- d.y.{owner} +. d.pin_off_y.{driver};
  for k = 0 to nsinks - 1 do
    let pid = d.net_pin_ids.(off + k) in
    let o = d.pin_owner.(pid) in
    ws.tx.(k + 1) <- d.x.{o} +. d.pin_off_x.{pid};
    ws.ty.(k + 1) <- d.y.{o} +. d.pin_off_y.{pid};
    ws.tcap.(k + 1) <- d.pin_cap.{pid}
  done;
  ws.n_terms <- nsinks + 1;
  Rctree.Steiner.build_into ws t.topology;
  Rctree.Elmore.compute_into ws ~r:d.r_per_unit ~c:d.c_per_unit;
  (* The [elmore] fault site, one layer above the pure kernel. *)
  (match t.fault with
  | None -> ()
  | Some f ->
      for v = 0 to ws.n_nodes - 1 do
        ws.delay.(v) <- f ws.delay.(v)
      done);
  match Design.kind d owner with
  | Design.Logic ->
      let lc = Design.libcell d owner in
      write_net t ws nid driver lc.Libcell.drive_res lc.Libcell.slew_base lc.Libcell.slew_load
  | Design.Input_pad -> write_net t ws nid driver pad_drive_res pad_slew_base pad_slew_load
  | Design.Output_pad | Design.Blockage -> invalid_arg "Delay.driver_params: not a driver"

(* Refresh cell arc [a]: its delay depends on its input pin's slew. *)
let update_cell_arc t a =
  let graph = t.graph in
  let d = graph.Graph.design in
  let pin = graph.Graph.arc_from.(a) in
  let owner = d.pin_owner.(pin) in
  match Design.kind d owner with
  | Design.Logic ->
      let lc = Design.libcell d owner in
      graph.Graph.arc_delay.(a) <- lc.Libcell.intrinsic +. (lc.Libcell.slew_sens *. t.slew.(pin))
  | Design.Input_pad | Design.Output_pad | Design.Blockage ->
      assert false (* cell arcs only exist on logic cells *)

(* Refresh the cell arcs leaving a pin (a dirty net feeding the pin may
   have changed its input slew). *)
let update_cell_arcs_from t pin =
  let graph = t.graph in
  for j = graph.Graph.out_start.(pin) to graph.Graph.out_start.(pin + 1) - 1 do
    let a = graph.Graph.out_arc.(j) in
    if not (Graph.is_net_arc graph a) then update_cell_arc t a
  done

(** Recompute all arc delays and slews from the placement in [d.x/d.y]. *)
let update t =
  let graph = t.graph in
  let d = graph.Graph.design in
  let nnets = Design.num_nets d in
  (* Pass 1: nets — topology, Elmore, net arc delays, slews. Each net
     writes only its own arcs, caps and pin slews (driver + sinks are
     unique to a net), so the loop is safely data-parallel — this is the
     paper's GPU-accelerated timing kernel on CPU domains. Each chunk
     owns one tree workspace; a net's result does not depend on which. *)
  Util.Parallel.for_chunks t.par ~grain:128 ~name:"sta.delay.nets" ~n:nnets (fun ~chunk ~lo ~hi ->
      let ws = t.workspaces.(chunk) in
      for nid = lo to hi - 1 do
        update_net t ws nid
      done);
  (* Pass 2: cell arcs, which follow the net arcs — slews at inputs are
     now final. *)
  for a = graph.Graph.num_net_arcs to graph.Graph.num_arcs - 1 do
    update_cell_arc t a
  done

(** Incremental delay refresh after moving only [cells]: recomputes the
    nets touching those cells (and the cell arcs their sink slews feed);
    everything else keeps its delays. Equivalent to [update] for the
    affected placement change — the tests assert exact agreement. Nets
    are deduplicated by stamping them with a per-call epoch; each net
    writes only its own arcs and slews, so the visiting order (first
    touch) does not matter. *)
let update_moved t ~cells =
  let d = t.graph.Graph.design in
  let ws = t.workspaces.(0) in
  t.epoch <- t.epoch + 1;
  let epoch = t.epoch in
  List.iter
    (fun id ->
      for j = d.cell_pin_off.(id) to d.cell_pin_off.(id + 1) - 1 do
        let net = d.pin_net.(d.cell_pin_ids.(j)) in
        if net >= 0 && t.dirty_stamp.(net) <> epoch then begin
          t.dirty_stamp.(net) <- epoch;
          update_net t ws net;
          (* Sink slews changed: their cells' input->output arcs follow. *)
          for k = d.net_pin_off.(net) + 1 to d.net_pin_off.(net + 1) - 1 do
            update_cell_arcs_from t d.net_pin_ids.(k)
          done
        end
      done)
    cells
