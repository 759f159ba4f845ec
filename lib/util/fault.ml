(** Fault injection for robustness tests.

    A plan names, per site, a *window* of calls to corrupt with NaN,
    infinity, or a huge-but-finite value, so tests and the CI robustness
    job can prove the divergence guards fire and recovery converges. It
    is pure data: each run arms it into fresh {!injector}s, applied one
    layer above the kernels ([wl_grad] in [Gp.Globalplace.run], [elmore]
    in [Sta.Delay]), which never see a plan.

    Spec strings (the [--fault-inject] flag):

      site=kind@start          corrupt every call from [start] on
      site=kind@start+count    corrupt calls [start, start+count)

    with kind one of [nan], [inf], [-inf], [huge] (1e30). Multiple
    comma-separated clauses are allowed, at most one per site. *)

type kind = Nan | Pos_inf | Neg_inf | Huge

type spec = { kind : kind; start : int; count : int (* < 0 = unbounded *) }

type site = Wl_grad | Elmore

type plan = (site * spec) list

let kind_to_string = function
  | Nan -> "nan"
  | Pos_inf -> "inf"
  | Neg_inf -> "-inf"
  | Huge -> "huge"

let kind_of_string = function
  | "nan" -> Some Nan
  | "inf" -> Some Pos_inf
  | "-inf" -> Some Neg_inf
  | "huge" -> Some Huge
  | _ -> None

let site_name = function Wl_grad -> "wl_grad" | Elmore -> "elmore"

let site_of_string = function "wl_grad" -> Some Wl_grad | "elmore" -> Some Elmore | _ -> None

let corrupt = function
  | Nan -> Float.nan
  | Pos_inf -> Float.infinity
  | Neg_inf -> Float.neg_infinity
  | Huge -> 1e30

(* The call counter is atomic: injection sites run inside parallel
   kernels, so under >1 domain the *number* of corrupted calls is
   deterministic but not which array elements they land on — guards
   must catch the corruption wherever it lands. *)
type injector = { spec : spec; calls : int Atomic.t }

let injector spec =
  { spec; calls = Atomic.make 0 }

let window_end s = if s.count < 0 then max_int else s.start + s.count

let apply { spec = s; calls } v =
  let n = Atomic.fetch_and_add calls 1 in
  if n >= s.start && n < window_end s then corrupt s.kind else v

let corrupted { spec = s; calls } = max 0 (min (Atomic.get calls) (window_end s) - s.start)

let spec_to_string s =
  if s.count < 0 then Printf.sprintf "%s@%d" (kind_to_string s.kind) s.start
  else Printf.sprintf "%s@%d+%d" (kind_to_string s.kind) s.start s.count

let parse_spec str =
  match String.index_opt str '@' with
  | None -> Error (Printf.sprintf "bad fault spec %S: expected kind@start[+count]" str)
  | Some i -> (
      let kind_s = String.sub str 0 i in
      let rest = String.sub str (i + 1) (String.length str - i - 1) in
      match kind_of_string kind_s with
      | None -> Error (Printf.sprintf "unknown fault kind %S (nan|inf|-inf|huge)" kind_s)
      | Some kind -> (
          let start_s, count_s =
            match String.index_opt rest '+' with
            | None -> (rest, None)
            | Some j ->
                ( String.sub rest 0 j,
                  Some (String.sub rest (j + 1) (String.length rest - j - 1)) )
          in
          match (int_of_string_opt start_s, Option.map int_of_string_opt count_s) with
          | Some start, None when start >= 0 -> Ok { kind; start; count = -1 }
          | Some start, Some (Some count) when start >= 0 && count > 0 ->
              Ok { kind; start; count }
          | _ -> Error (Printf.sprintf "bad fault window in %S" str)))

(** Parse a comma-separated [site=spec] list into a plan. *)
let parse str =
  let clauses = String.split_on_char ',' str |> List.map String.trim in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | "" :: rest -> go acc rest
    | clause :: rest -> (
        match String.index_opt clause '=' with
        | None -> Error (Printf.sprintf "bad fault clause %S: expected site=kind@start[+count]" clause)
        | Some i -> (
            let site_s = String.sub clause 0 i in
            let spec_s = String.sub clause (i + 1) (String.length clause - i - 1) in
            match (site_of_string site_s, parse_spec spec_s) with
            | None, _ -> Error (Printf.sprintf "unknown fault site %S (wl_grad|elmore)" site_s)
            | Some site, _ when List.mem_assoc site acc ->
                Error (Printf.sprintf "fault site %S given twice" site_s)
            | Some _, (Error _ as e) -> e
            | Some site, Ok spec -> go ((site, spec) :: acc) rest))
  in
  go [] clauses
