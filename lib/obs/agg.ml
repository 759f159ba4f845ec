(** In-memory span aggregator: per-name count / total / self durations.

    Self time relies on the single-threaded well-nested span discipline
    ([Ctx.span] guarantees children complete before their parent): when a
    span ends we already know the total time of its children, so
    [self = dur - children]. [to_breakdown] gives per-name total seconds,
    largest first, which is what [Tdp.Flow.result.breakdown] promises. *)

type stat = {
  mutable count : int;
  mutable total : float;
  mutable self : float;
  mutable dmin : float;
  mutable dmax : float;
}

type t = {
  stats : (string, stat) Hashtbl.t;
  child_time : (int, float ref) Hashtbl.t; (* open-span id -> completed child seconds *)
}

let create () = { stats = Hashtbl.create 32; child_time = Hashtbl.create 32 }

let record t (s : Span.t) =
  let children =
    match Hashtbl.find_opt t.child_time s.id with
    | Some r ->
        Hashtbl.remove t.child_time s.id;
        !r
    | None -> 0.0
  in
  if s.parent >= 0 then begin
    match Hashtbl.find_opt t.child_time s.parent with
    | Some r -> r := !r +. s.dur
    | None -> Hashtbl.add t.child_time s.parent (ref s.dur)
  end;
  let st =
    match Hashtbl.find_opt t.stats s.name with
    | Some st -> st
    | None ->
        let st = { count = 0; total = 0.0; self = 0.0; dmin = Float.infinity; dmax = 0.0 } in
        Hashtbl.add t.stats s.name st;
        st
  in
  st.count <- st.count + 1;
  st.total <- st.total +. s.dur;
  st.self <- st.self +. Float.max 0.0 (s.dur -. children);
  if s.dur < st.dmin then st.dmin <- s.dur;
  if s.dur > st.dmax then st.dmax <- s.dur

let sink t = { Sink.null with Sink.on_span = record t }

(** All (name, stat) pairs, no particular order promised. *)
let stats t = Hashtbl.fold (fun name st acc -> (name, st) :: acc) t.stats []

let get t name = Hashtbl.find_opt t.stats name

let total t name = match get t name with Some st -> st.total | None -> 0.0

(** Per-name total seconds, largest first. *)
let to_breakdown t =
  stats t
  |> List.map (fun (name, st) -> (name, st.total))
  |> List.sort (fun (_, a) (_, b) -> compare b a)

(** Per-name *self* seconds (total minus children), largest first — the
    attribution the bench regression sentinel compares, since self time
    is additive across phases where total double-counts nesting. *)
let to_self_breakdown t =
  stats t
  |> List.map (fun (name, st) -> (name, st.self))
  |> List.sort (fun (_, a) (_, b) -> compare b a)
