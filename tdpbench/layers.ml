(* The traced run's recorder: an [Obs.Ctx] whose clock also samples the
   minor-heap allocation counter, so every span (the program's own and the
   benchmark's) carries both its wall time and the words it allocated.
   Spans stay in memory until the run ends; self time and self words are
   attributed to layers by span name. *)

type recorded = { span : Obs.Span.t; words : float (* inclusive minor words *) }

type t = { ctx : Obs.Ctx.t; spans : recorded list ref (* completion order, newest first *) }

let create () =
  (* Keys are the exact [clock () - t0] values [Obs.Ctx] stores as span
     starts; the clock is forced strictly increasing so keys are unique. *)
  let last = ref Float.neg_infinity and t0 = ref Float.nan and last_words = ref 0.0 in
  let at = Hashtbl.create 64 in
  let clock () =
    let c = Float.max (Unix.gettimeofday ()) (Float.succ !last) in
    last := c;
    last_words := Gc.minor_words ();
    if Float.is_nan !t0 then t0 := c else Hashtbl.replace at (c -. !t0) !last_words;
    c
  in
  let spans = ref [] in
  let on_span (s : Obs.Span.t) =
    (* Called right after the span's closing clock read. *)
    let w_start = Option.value ~default:!last_words (Hashtbl.find_opt at s.start) in
    Hashtbl.remove at s.start;
    Hashtbl.remove at (!last -. !t0);
    spans := { span = s; words = !last_words -. w_start } :: !spans
  in
  { ctx = Obs.Ctx.create ~clock ~sinks:[ { Obs.Sink.null with on_span } ] (); spans }

(* Which layer a span's self time belongs to; [None] counts as
   unaccounted. Program spans come first, then the benchmark's own. *)
let layer_of name =
  match name with
  | "bench.formats.load" -> Some "formats"
  | "gp_iter" | "density" | "wl_grad" | "optimizer" | "legalize" | "detailed" -> Some "gp"
  | "sta" | "sta.update" | "sta.delay" | "sta.arrival" | "sta.required" | "bench.sta.create"
  | "bench.sta.query" ->
      Some "sta"
  | "flow" | "sta+extraction" | "extraction" | "pp_grad" | "bench.tdp.flow" -> Some "tdp"
  | "evaluate" -> Some "evalkit"
  | "bench.check" -> Some "check"
  | n when String.starts_with ~prefix:"svc." n || String.starts_with ~prefix:"bench.svc." n ->
      Some "service"
  | _ -> None

type stat = { mutable total : float; mutable self : float; mutable self_words : float }

(* Per-name totals with self time/words (children complete before their
   parent, so a parent's children are known when it arrives). *)
let aggregate spans =
  let stats = Hashtbl.create 32 in
  let child = Hashtbl.create 64 in
  List.iter
    (fun { span = s; words } ->
      let ct, cw =
        match Hashtbl.find_opt child s.Obs.Span.id with
        | Some (ct, cw) ->
            Hashtbl.remove child s.id;
            (ct, cw)
        | None -> (0.0, 0.0)
      in
      (if s.parent >= 0 then
         let pt, pw = Option.value ~default:(0.0, 0.0) (Hashtbl.find_opt child s.parent) in
         Hashtbl.replace child s.parent (pt +. s.dur, pw +. words));
      let st =
        match Hashtbl.find_opt stats s.name with
        | Some st -> st
        | None ->
            let st = { total = 0.0; self = 0.0; self_words = 0.0 } in
            Hashtbl.add stats s.name st;
            st
      in
      st.total <- st.total +. s.dur;
      st.self <- st.self +. Float.max 0.0 (s.dur -. ct);
      st.self_words <- st.self_words +. Float.max 0.0 (words -. cw))
    (List.rev spans);
  stats
