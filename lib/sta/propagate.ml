(** Arrival / required propagation and slack computation (late/max
    analysis, i.e. setup checks — the ICCAD2015 TDP contest metric).

    Pins unreachable from any startpoint keep arrival = -inf and never
    produce violations; symmetrically for required times.

    The sweeps are levelized: pins are bucketed by topological depth once
    (the graph is static over a placement run), and every pin of a level
    depends only on strictly earlier levels (arrivals) or strictly later
    levels (required times). Each level then fans out across domains —
    the GPU-timer propagation pattern on CPU domains. Max/min are exact,
    so parallel results are bitwise equal to sequential ones. *)

type t = {
  arr : float array;
  req : float array;
  slack : float array;
  levels : int array array; (* pins bucketed by topological depth, sources first *)
  mutable ranked : int array; (* endpoints, worst slack first; see [ranking] *)
  mutable ranked_failing : int; (* failing prefix of [ranked]; -1 = stale *)
  mutable ranked_tail : bool; (* whether the rest of [ranked] is sorted too *)
}

let build_levels (graph : Graph.t) =
  let np = Graph.num_pins graph in
  let depth = Array.make np 0 in
  Array.iter
    (fun p ->
      for i = graph.out_start.(p) to graph.out_start.(p + 1) - 1 do
        let q = graph.arc_to.(graph.out_arc.(i)) in
        if depth.(p) + 1 > depth.(q) then depth.(q) <- depth.(p) + 1
      done)
    graph.topo;
  let max_depth = Array.fold_left max 0 depth in
  let counts = Array.make (max_depth + 1) 0 in
  Array.iter (fun d -> counts.(d) <- counts.(d) + 1) depth;
  let levels = Array.map (fun c -> Array.make c 0) counts in
  let fill = Array.make (max_depth + 1) 0 in
  (* Bucket in pin order: deterministic level contents. *)
  for p = 0 to np - 1 do
    let d = depth.(p) in
    levels.(d).(fill.(d)) <- p;
    fill.(d) <- fill.(d) + 1
  done;
  levels

let create graph =
  let np = Graph.num_pins graph in
  {
    arr = Array.make np 0.0;
    req = Array.make np 0.0;
    slack = Array.make np 0.0;
    levels = build_levels graph;
    ranked = [||];
    ranked_failing = -1;
    ranked_tail = false;
  }

let update ?(obs = Obs.Ctx.null) t (graph : Graph.t) =
  let np = Graph.num_pins graph in
  let arr = t.arr and req = t.req in
  let nlevels = Array.length t.levels in
  t.ranked_failing <- -1;
  (* Forward: arrival times level by level; within a level every pin only
     reads arrivals of strictly earlier levels. *)
  Obs.Ctx.span obs "sta.arrival" (fun () ->
      for l = 0 to nlevels - 1 do
        let level = t.levels.(l) in
        Util.Parallel.for_ ~grain:64 ~name:"sta.arrival.level" (Array.length level) (fun i ->
            let p = level.(i) in
            let a =
              ref
                (if graph.is_startpoint.(p) then graph.start_arrival.(p)
                 else Float.neg_infinity)
            in
            for j = graph.in_start.(p) to graph.in_start.(p + 1) - 1 do
              let arc = graph.in_arc.(j) in
              let cand = arr.(graph.arc_from.(arc)) +. graph.arc_delay.(arc) in
              if cand > !a then a := cand
            done;
            arr.(p) <- !a)
      done);
  (* Backward: required times from the deepest level up, then slacks. *)
  Obs.Ctx.span obs "sta.required" (fun () ->
      for l = nlevels - 1 downto 0 do
        let level = t.levels.(l) in
        Util.Parallel.for_ ~grain:64 ~name:"sta.required.level" (Array.length level) (fun i ->
            let p = level.(i) in
            let r =
              ref (if graph.is_endpoint.(p) then graph.end_required.(p) else Float.infinity)
            in
            for j = graph.out_start.(p) to graph.out_start.(p + 1) - 1 do
              let arc = graph.out_arc.(j) in
              let cand = req.(graph.arc_to.(arc)) -. graph.arc_delay.(arc) in
              if cand < !r then r := cand
            done;
            req.(p) <- !r)
      done;
      Util.Parallel.for_ ~name:"sta.slack" np (fun p ->
          t.slack.(p) <-
            (if Float.is_finite arr.(p) && Float.is_finite req.(p) then req.(p) -. arr.(p)
             else Float.infinity)))

(** Slack at an endpoint pin (infinite when the endpoint is unreachable). *)
let endpoint_slack t (graph : Graph.t) p =
  assert (graph.is_endpoint.(p));
  t.slack.(p)

(* The slack pass above maps every non-finite arrival or required time
   to +inf, so the folds below need no finiteness test of their own: +inf
   never lowers a minimum and is never negative. *)

(** Worst negative slack over all endpoints (0 when none violate). *)
let wns t (graph : Graph.t) =
  Array.fold_left (fun acc p -> Float.min acc t.slack.(p)) 0.0 graph.endpoints

(** Total negative slack: sum of negative endpoint slacks. *)
let tns t (graph : Graph.t) =
  Array.fold_left
    (fun acc p ->
      let s = t.slack.(p) in
      if s < 0.0 then acc +. s else acc)
    0.0 graph.endpoints

(* Worst slack first; equal slacks order by pin id, so endpoint rankings
   (and everything derived from them — extraction, goldens) are total
   orders, reproducible across runs and domain counts. *)
let compare_endpoint_slack t a b =
  let c = compare t.slack.(a) t.slack.(b) in
  if c <> 0 then c else compare a b

(* Sort [a.(lo .. hi-1)] into rank order. *)
let sort_range t a lo hi =
  let s = Array.sub a lo (hi - lo) in
  Array.stable_sort (compare_endpoint_slack t) s;
  Array.blit s 0 a lo (hi - lo)

(** All endpoints by slack, worst first (ties by pin id), with at least
    the first [n] in final order. The order is built on the first call
    after an [update] (the only writer of [slack]) and shared until the
    next one: callers must not mutate it. Every failing endpoint ranks
    before every other one, so the failing endpoints are moved to the
    front and sorted; the rest is sorted only when a call needs more
    than the failing prefix. Slacks are never NaN (the slack pass maps
    every non-finite operand to +inf), and the order is total, so
    sorting the two parts apart gives the order of one full sort. *)
let ranking t (graph : Graph.t) ~n =
  let eps = graph.endpoints in
  if t.ranked_failing < 0 then begin
    if Array.length t.ranked <> Array.length eps then t.ranked <- Array.make (Array.length eps) 0;
    (* Failing endpoints fill the front, the others the back; each part
       is sorted before it is read, so the order they arrive in here
       does not matter. *)
    let r = t.ranked in
    let i = ref 0 and j = ref (Array.length eps) in
    Array.iter
      (fun p ->
        if t.slack.(p) < 0.0 then begin
          r.(!i) <- p;
          incr i
        end
        else begin
          decr j;
          r.(!j) <- p
        end)
      eps;
    sort_range t r 0 !i;
    t.ranked_failing <- !i;
    t.ranked_tail <- false
  end;
  if n > t.ranked_failing && not t.ranked_tail then begin
    sort_range t t.ranked t.ranked_failing (Array.length eps);
    t.ranked_tail <- true
  end;
  t.ranked

(** Number of endpoints with negative slack. *)
let num_failing t graph =
  ignore (ranking t graph ~n:0);
  t.ranked_failing

(** Endpoints with negative slack, worst first (ties by pin id). *)
let failing_endpoints t graph =
  let ranked = ranking t graph ~n:0 in
  List.init t.ranked_failing (Array.get ranked)
