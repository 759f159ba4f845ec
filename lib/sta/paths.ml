(** Critical path enumeration.

    A timing path runs from a startpoint to an endpoint. Enumeration of the
    k worst paths into a given endpoint uses best-first search over partial
    backward walks with the *exact* completion bound: a partial suffix
    (v ~> endpoint, with accumulated suffix delay D) can be completed to a
    full path of arrival at most arr(v) + D, and exactly that value is
    achievable by following worst-arrival predecessors. Keying the queue on
    that bound makes every completed pop the next-worst path — this is the
    implicit path representation used by modern timers (OpenTimer,
    UI-Timer) in its plain best-first form. *)

type path = {
  endpoint : int;
  arrival : float; (* data arrival at the endpoint along this path *)
  slack : float; (* end_required(endpoint) - arrival *)
  pins : int array; (* startpoint first, endpoint last *)
  arcs : int array; (* arc ids, aligned: arcs.(i) connects pins.(i) -> pins.(i+1) *)
}

(* Lexicographic comparison of pin-id arrays — the structural tie-break
   that makes path orderings total (and therefore reproducible across
   domain counts and heap layouts). *)
let compare_pins (a : int array) (b : int array) =
  let la = Array.length a and lb = Array.length b in
  let rec go i =
    if i >= la || i >= lb then compare la lb
    else
      let c = compare a.(i) b.(i) in
      if c <> 0 then c else go (i + 1)
  in
  go 0

(** Total order "worst first": larger arrival first, ties broken on
    endpoint pin id, then pins lexicographically. Two paths compare equal
    only when they are the same path. *)
let compare_worst p q =
  let c = compare q.arrival p.arrival in
  if c <> 0 then c
  else
    let c = compare p.endpoint q.endpoint in
    if c <> 0 then c else compare_pins p.pins q.pins

(** Total order "most violating first": smaller slack first, same
    structural tie-break. Used by the pooled report command so goldens
    and n*k extraction are reproducible under slack ties. *)
let compare_by_slack p q =
  let c = compare p.slack q.slack in
  if c <> 0 then c
  else
    let c = compare p.endpoint q.endpoint in
    if c <> 0 then c else compare_pins p.pins q.pins

let rec take n = function
  | [] -> []
  | x :: rest -> if n <= 0 then [] else x :: take (n - 1) rest

(* The search state, reused from one search to the next. Every pushed
   partial suffix is one arena entry: its first pin [node], the suffix
   delay from [node] to the endpoint, the arc leaving [node] along the
   suffix and the entry of the suffix it extends ([parent]; the root
   entry, the endpoint itself, has arc and parent -1). The heap holds
   arena indices. The arrays only grow, to the largest search so far. *)
type workspace = {
  heap : Util.Dheap.t;
  mutable node : int array;
  mutable sfx_delay : float array;
  mutable arc : int array;
  mutable parent : int array;
  mutable len : int;
}

let workspace () =
  { heap = Util.Dheap.create (); node = [||]; sfx_delay = [||]; arc = [||]; parent = [||]; len = 0 }

let grow_arena ws =
  let cap = max 64 (2 * ws.len) in
  let extend a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 ws.len;
    b
  in
  ws.node <- extend ws.node 0;
  ws.sfx_delay <- extend ws.sfx_delay 0.0;
  ws.arc <- extend ws.arc 0;
  ws.parent <- extend ws.parent 0

(* Push the suffix that reaches [v] with delay [d] over [arc], extending
   entry [parent]; [key] is its negated completion bound. *)
let push ws key v d arc parent =
  if ws.len = Array.length ws.node then grow_arena ws;
  let e = ws.len in
  ws.node.(e) <- v;
  ws.sfx_delay.(e) <- d;
  ws.arc.(e) <- arc;
  ws.parent.(e) <- parent;
  ws.len <- e + 1;
  Util.Dheap.push ws.heap key e

(* The complete path of entry [e]: its pins and arcs in forward order,
   read off the parent chain (startpoint first). *)
let make_path ws (graph : Graph.t) ~endpoint ~arrival e =
  let npins = ref 0 in
  let i = ref e in
  while !i >= 0 do
    incr npins;
    i := ws.parent.(!i)
  done;
  let pins = Array.make !npins 0 and arcs = Array.make (!npins - 1) 0 in
  let i = ref e in
  for j = 0 to !npins - 1 do
    pins.(j) <- ws.node.(!i);
    if j < !npins - 1 then arcs.(j) <- ws.arc.(!i);
    i := ws.parent.(!i)
  done;
  { endpoint; arrival; slack = graph.end_required.(endpoint) -. arrival; pins; arcs }

(** [k_worst ws graph arr ~endpoint ~k] returns up to [k] complete paths
    into [endpoint], worst (largest arrival) first. [arr] must hold the
    current arrival times; [ws] is scratch state, overwritten. Returns []
    when the endpoint is unreachable. *)
let k_worst ws (graph : Graph.t) (arr : float array) ~endpoint ~k =
  if k <= 0 || not (Float.is_finite arr.(endpoint)) then []
  else begin
    (* Min-heap on the negated completion bound; payload: arena entry. *)
    Util.Dheap.clear ws.heap;
    ws.len <- 0;
    push ws (-.arr.(endpoint)) endpoint 0.0 (-1) (-1);
    let out = ref [] in
    let count = ref 0 in
    (* Arrival of the k-th completed path. Completion bounds pop in
       non-increasing order, so once a popped bound drops below this no
       remaining path can tie the k-th worst. Until then every tied
       completion is collected, which makes the returned k-subset
       canonical under [compare_worst] even when more than k paths share
       the boundary arrival bitwise (symmetric reconvergent fanin). The
       bound arr(v) + D is exact only in real arithmetic — float
       re-association wobbles it by ~n ulps relative to the completed
       arrival — so the cut-off carries a relative slop well above that
       noise; over-collected near-ties are sorted out by the final
       truncation. *)
    let kth = ref Float.neg_infinity in
    let cutoff = ref Float.neg_infinity in
    let stop = ref false in
    while (not !stop) && not (Util.Dheap.is_empty ws.heap) do
      let e = Util.Dheap.pop ws.heap in
      let v = ws.node.(e) in
      (* The popped key negated back, recomputed bit for bit: the root
         (entry 0) was keyed on -arr(endpoint), every other entry on
         -(arr(v) + D). *)
      let bound = if e = 0 then arr.(v) else arr.(v) +. ws.sfx_delay.(e) in
      if !count >= k && bound < !cutoff then stop := true
      else if graph.is_startpoint.(v) || graph.in_start.(v) = graph.in_start.(v + 1) then begin
        (* Complete path: v has no predecessors to extend through. *)
        if graph.is_startpoint.(v) then begin
          out := make_path ws graph ~endpoint ~arrival:bound e :: !out;
          incr count;
          if !count = k then begin
            kth := bound;
            cutoff := !kth -. (1e-9 *. (1.0 +. Float.abs !kth))
          end
        end
        (* Non-startpoint sources (dangling pins) are not real paths. *)
      end
      else
        for i = graph.in_start.(v) to graph.in_start.(v + 1) - 1 do
          let a = graph.in_arc.(i) in
          let u = graph.arc_from.(a) in
          if Float.is_finite arr.(u) then begin
            let nd = ws.sfx_delay.(e) +. graph.arc_delay.(a) in
            push ws (-.(arr.(u) +. nd)) u nd a e
          end
        done
    done;
    (* Pop order among equal completion bounds depends on heap internals;
       canonicalise with the structural tie-break, then truncate the
       over-collected boundary ties back to k. *)
    take k (List.stable_sort compare_worst (List.rev !out))
  end

(** The single worst path into [endpoint]: the first path of the k-worst
    search at k = 1. *)
let worst_path ws (graph : Graph.t) (arr : float array) ~endpoint =
  match k_worst ws graph arr ~endpoint ~k:1 with [] -> None | p :: _ -> Some p

(** Validity check used by tests: consecutive pins are linked by the listed
    arcs, the path starts at a startpoint and ends at the endpoint, and the
    arrival equals the sum of delays plus the start arrival. *)
let is_valid (graph : Graph.t) p =
  let n = Array.length p.pins in
  n >= 1
  && graph.is_startpoint.(p.pins.(0))
  && p.pins.(n - 1) = p.endpoint
  && graph.is_endpoint.(p.endpoint)
  && Array.length p.arcs = n - 1
  && (let ok = ref true in
      Array.iteri
        (fun i a ->
          if graph.arc_from.(a) <> p.pins.(i) || graph.arc_to.(a) <> p.pins.(i + 1) then
            ok := false)
        p.arcs;
      !ok)
  &&
  let total =
    Array.fold_left
      (fun acc a -> acc +. graph.arc_delay.(a))
      graph.start_arrival.(p.pins.(0))
      p.arcs
  in
  Float.abs (total -. p.arrival) < 1e-6 *. (1.0 +. Float.abs p.arrival)
