(** Streaming tokenizer (see the interface). *)

exception Parse_error of int * string

let max_token_len = 4096
let max_line_len = 8 * 1024 * 1024
let chunk_len = 64 * 1024

(* Character classes, resolved through a 256-byte table so the inner
   scanning loops do one unsafe lookup per byte. *)
let cls_norm = '\000'
let cls_space = '\001'
let cls_special = '\002'
let cls_hash = '\003'

type src = Chan of in_channel | Str of { s : string; mutable spos : int }

type t = {
  sname : string;
  src : src;
  chunk : Bytes.t;
  mutable clen : int; (* valid bytes in [chunk] *)
  mutable cpos : int; (* read cursor in [chunk] *)
  mutable eof : bool;
  mutable line : Bytes.t; (* current line, reused across lines *)
  mutable llen : int;
  mutable lno : int;
  mutable pos : int; (* token cursor within the line *)
  mutable tstart : int;
  mutable tlen : int;
  mutable hash : bool; (* stopped at an unconsumed '#' *)
  cls : Bytes.t; (* 256-entry character class table *)
  scratch : Bytes.t option array; (* numeric scratch, indexed by length *)
  mutable owned : in_channel option; (* closed by [close] *)
}

let num_scratch_max = 64

let make ~specials ~name src =
  let cls = Bytes.make 256 cls_norm in
  Bytes.set cls (Char.code ' ') cls_space;
  Bytes.set cls (Char.code '\t') cls_space;
  Bytes.set cls (Char.code '#') cls_hash;
  String.iter (fun c -> Bytes.set cls (Char.code c) cls_special) specials;
  {
    sname = name;
    src;
    chunk = Bytes.create chunk_len;
    clen = 0;
    cpos = 0;
    eof = false;
    line = Bytes.create 256;
    llen = 0;
    lno = 0;
    pos = 0;
    tstart = 0;
    tlen = 0;
    hash = false;
    cls;
    scratch = Array.make (num_scratch_max + 1) None;
    owned = None;
  }

let of_channel ?(specials = "") ~name ch = make ~specials ~name (Chan ch)
let of_string ?(specials = "") ~name s = make ~specials ~name (Str { s; spos = 0 })

let open_file ?(specials = "") ?name path =
  let name = match name with Some n -> n | None -> Filename.basename path in
  match open_in_bin path with
  | ch ->
      let t = make ~specials ~name (Chan ch) in
      t.owned <- Some ch;
      t
  | exception Sys_error msg -> raise (Parse_error (0, msg))

let close t =
  match t.owned with
  | Some ch ->
      t.owned <- None;
      close_in_noerr ch
  | None -> ()

let name t = t.sname
let line_number t = t.lno

let fail t fmt =
  Printf.ksprintf
    (fun msg -> raise (Parse_error (t.lno, t.sname ^ ": " ^ msg)))
    fmt

let fail_at t ~line fmt =
  Printf.ksprintf
    (fun msg -> raise (Parse_error (line, t.sname ^ ": " ^ msg)))
    fmt

let refill t =
  (match t.src with
  | Chan ch -> t.clen <- input ch t.chunk 0 chunk_len
  | Str s ->
      let n = min chunk_len (String.length s.s - s.spos) in
      Bytes.blit_string s.s s.spos t.chunk 0 n;
      s.spos <- s.spos + n;
      t.clen <- n);
  t.cpos <- 0;
  if t.clen = 0 then t.eof <- true

let grow_line t needed =
  let cap = Bytes.length t.line in
  if needed > max_line_len then fail t "line exceeds %d bytes" max_line_len;
  let cap' = ref (max 256 cap) in
  while !cap' < needed do
    cap' := min max_line_len (!cap' * 2)
  done;
  let b = Bytes.create !cap' in
  Bytes.blit t.line 0 b 0 t.llen;
  t.line <- b

let next_line t =
  t.llen <- 0;
  t.pos <- 0;
  t.tstart <- 0;
  t.tlen <- 0;
  t.hash <- false;
  if t.eof && t.cpos >= t.clen then false
  else begin
    let saw_any = ref false in
    let stop = ref false in
    while not !stop do
      if t.cpos >= t.clen then begin
        if t.eof then stop := true
        else begin
          refill t;
          if t.eof then stop := true
        end
      end
      else begin
        (* Copy up to the next newline or end of chunk in one blit. *)
        saw_any := true;
        let nl = Bytes.index_from_opt t.chunk t.cpos '\n' in
        let upto =
          match nl with Some i when i < t.clen -> i | _ -> t.clen
        in
        let n = upto - t.cpos in
        if t.llen + n > Bytes.length t.line then grow_line t (t.llen + n);
        Bytes.blit t.chunk t.cpos t.line t.llen n;
        t.llen <- t.llen + n;
        match nl with
        | Some i when i < t.clen ->
            t.cpos <- i + 1;
            stop := true
        | _ -> t.cpos <- t.clen
      end
    done;
    if (not !saw_any) && t.llen = 0 && t.eof && t.cpos >= t.clen then false
    else begin
      t.lno <- t.lno + 1;
      (* Strip a CRLF ending; interior '\r' stays in its token. *)
      if t.llen > 0 && Bytes.unsafe_get t.line (t.llen - 1) = '\r' then
        t.llen <- t.llen - 1;
      true
    end
  end

let next_tok t =
  t.hash <- false;
  let line = t.line and cls = t.cls and len = t.llen in
  let p = ref t.pos in
  while
    !p < len
    && Bytes.unsafe_get cls (Char.code (Bytes.unsafe_get line !p)) = cls_space
  do
    incr p
  done;
  if !p >= len then begin
    t.pos <- len;
    t.tlen <- 0;
    false
  end
  else
    let c = Bytes.unsafe_get cls (Char.code (Bytes.unsafe_get line !p)) in
    if c = cls_hash then begin
      t.pos <- !p;
      t.tlen <- 0;
      t.hash <- true;
      false
    end
    else if c = cls_special then begin
      t.tstart <- !p;
      t.tlen <- 1;
      t.pos <- !p + 1;
      true
    end
    else begin
      t.tstart <- !p;
      let q = ref !p in
      while
        !q < len
        && Bytes.unsafe_get cls (Char.code (Bytes.unsafe_get line !q)) = cls_norm
      do
        incr q
      done;
      t.tlen <- !q - !p;
      t.pos <- !q;
      if t.tlen > max_token_len then
        fail t "token exceeds %d bytes (starts %S...)" max_token_len
          (Bytes.sub_string line !p 24);
      true
    end

let at_hash t = t.hash

let skip_hash t =
  if t.hash then begin
    t.pos <- t.pos + 1;
    t.hash <- false
  end

let rec next_tok_ml t =
  if next_tok t then true else if next_line t then next_tok_ml t else false

let tok t = Bytes.sub_string t.line t.tstart t.tlen
let tok_len t = t.tlen

let tok_is t s =
  t.tlen = String.length s
  &&
  let rec eq i =
    i >= t.tlen
    || Bytes.unsafe_get t.line (t.tstart + i) = String.unsafe_get s i && eq (i + 1)
  in
  eq 0

let tok_is_ci t s =
  t.tlen = String.length s
  &&
  let rec eq i =
    i >= t.tlen
    || Char.lowercase_ascii (Bytes.unsafe_get t.line (t.tstart + i))
       = Char.lowercase_ascii (String.unsafe_get s i)
       && eq (i + 1)
  in
  eq 0

let tok_starts_with t c = t.tlen > 0 && Bytes.unsafe_get t.line t.tstart = c
let tok_lookup t tbl = Strtab.find_span tbl t.line ~pos:t.tstart ~len:t.tlen

(* Parse numbers via a per-length scratch buffer: the token bytes are
   blitted into an exactly-sized Bytes that [unsafe_to_string] exposes to
   [float_of_string] without a substring allocation. The scratch is never
   mutated while a string view of it is live. *)
let scratch_view t =
  let n = t.tlen in
  let b =
    match t.scratch.(n) with
    | Some b -> b
    | None ->
        let b = Bytes.create n in
        t.scratch.(n) <- Some b;
        b
  in
  Bytes.blit t.line t.tstart b 0 n;
  Bytes.unsafe_to_string b

let tok_float t =
  if t.tlen = 0 || t.tlen > num_scratch_max then
    fail t "malformed number %S" (Bytes.sub_string t.line t.tstart (min t.tlen 32));
  match float_of_string_opt (scratch_view t) with
  | Some v when Float.is_finite v -> v
  | _ -> fail t "malformed number %S" (tok t)

let tok_int t =
  if t.tlen = 0 || t.tlen > num_scratch_max then
    fail t "malformed integer %S" (Bytes.sub_string t.line t.tstart (min t.tlen 32));
  match int_of_string_opt (scratch_view t) with
  | Some v -> v
  | None -> fail t "malformed integer %S" (tok t)

let expect t ~what = if not (next_tok t) then fail t "expected %s" what

let expect_float t ~what =
  expect t ~what;
  tok_float t

let expect_int t ~what =
  expect t ~what;
  tok_int t

let expect_lit t lit =
  expect t ~what:(Printf.sprintf "'%s'" lit);
  if not (tok_is_ci t lit) then fail t "expected '%s', got %S" lit (tok t)
