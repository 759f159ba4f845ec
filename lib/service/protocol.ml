(** JSONL request/reply codec (see the interface). Kept free of any
    engine state so the same codec serves the stdin loop, the socket
    loop, the in-process bench driver and the tests. *)

type request = { id : string; op : string; params : Obs.Json.t }

let max_line_bytes = 16 * 1024 * 1024

type line = Line of string | Too_long | Eof

(* Bytes are read in chunks; [chunk.[pos, len)] is not consumed yet. *)
type reader = { ic : in_channel; chunk : Bytes.t; mutable pos : int; mutable len : int }

let reader ic = { ic; chunk = Bytes.create 65536; pos = 0; len = 0 }

let read_line r =
  let buf = Buffer.create 256 in
  (* [over]: the line passed the cap; its bytes are skipped, not kept. *)
  let rec go over =
    if r.pos >= r.len then begin
      r.len <- input r.ic r.chunk 0 (Bytes.length r.chunk);
      r.pos <- 0
    end;
    if r.len = 0 then
      if over then Too_long else if Buffer.length buf = 0 then Eof else Line (Buffer.contents buf)
    else begin
      let stop = ref r.pos in
      while !stop < r.len && Bytes.get r.chunk !stop <> '\n' do
        incr stop
      done;
      let n = !stop - r.pos in
      let over = over || Buffer.length buf + n > max_line_bytes in
      if over then Buffer.reset buf else Buffer.add_subbytes buf r.chunk r.pos n;
      if !stop < r.len then begin
        r.pos <- !stop + 1;
        if over then Too_long else Line (Buffer.contents buf)
      end
      else begin
        r.pos <- r.len;
        go over
      end
    end
  in
  go false

let parse_request line =
  match Obs.Json.parse line with
  | Error msg -> Error ("malformed JSON: " ^ msg)
  | Ok json -> (
      match json with
      | Obs.Json.Obj _ -> (
          let id =
            match Obs.Json.member "id" json with
            | Some (Obs.Json.String s) -> s
            | Some (Obs.Json.Int i) -> string_of_int i
            | _ -> ""
          in
          match Obs.Json.member "op" json with
          | Some (Obs.Json.String op) when op <> "" ->
              let params =
                match Obs.Json.member "params" json with
                | Some (Obs.Json.Obj _ as p) -> p
                | _ -> Obs.Json.Obj []
              in
              Ok { id; op; params }
          | _ -> Error "request has no string \"op\" field")
      | _ -> Error "request is not a JSON object")

let param r key = Obs.Json.member key r.params

let param_string r key =
  match param r key with Some j -> Obs.Json.to_string_opt j | None -> None

let param_float r key = match param r key with Some j -> Obs.Json.to_float j | None -> None

let param_int r key = match param r key with Some j -> Obs.Json.to_int j | None -> None

let param_bool r key =
  match param r key with Some (Obs.Json.Bool b) -> Some b | _ -> None

let ok_reply ~id result =
  Obs.Json.Obj [ ("id", Obs.Json.String id); ("ok", Obs.Json.Bool true); ("result", result) ]

(* Same payload shape as the binaries' --report-json "error" object. *)
let error_to_json e =
  Obs.Json.Obj
    (("kind", Obs.Json.String (Util.Errors.kind e))
    :: ("message", Obs.Json.String (Util.Errors.message e))
    :: List.map (fun (k, v) -> (k, Obs.Json.String v)) (Util.Errors.fields e))

let error_reply ~id e =
  Obs.Json.Obj
    [ ("id", Obs.Json.String id); ("ok", Obs.Json.Bool false); ("error", error_to_json e) ]

let raw_error_reply ~id ~kind ~message =
  Obs.Json.Obj
    [
      ("id", Obs.Json.String id);
      ("ok", Obs.Json.Bool false);
      ( "error",
        Obs.Json.Obj
          [ ("kind", Obs.Json.String kind); ("message", Obs.Json.String message) ] );
    ]
