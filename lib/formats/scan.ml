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
  memo_keys : string array; (* slow-path numeric tokens, direct-mapped by hash *)
  memo_vals : float array;
  mutable owned : in_channel option; (* closed by [close] *)
}

let num_scratch_max = 64
let memo_slots = 256

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
    memo_keys = Array.make memo_slots "";
    memo_vals = Array.make memo_slots 0.0;
    owned = None;
  }

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

let remaining_bytes t =
  let buffered = t.clen - t.cpos in
  match t.src with
  | Str s -> String.length s.s - s.spos + buffered
  | Chan ch -> (
      (* A length below the read position (a file that reports none, such
         as a pseudo-file) is as unknown as a pipe's. *)
      match in_channel_length ch - pos_in ch with
      | n when n >= 0 -> n + buffered
      | _ -> max_int
      | exception Sys_error _ -> max_int)

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
        let chunk = t.chunk and clen = t.clen in
        let nl = ref t.cpos in
        (* Eight bytes at a time while none is a newline (the classic
           has-zero-byte test on the word xor '\n' repeated). *)
        while
          !nl + 8 <= clen
          &&
          let w = Int64.logxor (Bytes.get_int64_ne chunk !nl) 0x0a0a0a0a0a0a0a0aL in
          Int64.logand (Int64.logand (Int64.sub w 0x0101010101010101L) (Int64.logxor w (-1L)))
            0x8080808080808080L
          = 0L
        do
          nl := !nl + 8
        done;
        while !nl < clen && Bytes.unsafe_get chunk !nl <> '\n' do
          incr nl
        done;
        let n = !nl - t.cpos in
        if t.llen + n > Bytes.length t.line then grow_line t (t.llen + n);
        Bytes.blit chunk t.cpos t.line t.llen n;
        t.llen <- t.llen + n;
        if !nl < clen then begin
          t.cpos <- !nl + 1;
          stop := true
        end
        else t.cpos <- clen
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
  let n = String.length s in
  t.tlen = n
  &&
  let line = t.line and st = t.tstart in
  let i = ref 0 in
  while !i < n && Bytes.unsafe_get line (st + !i) = String.unsafe_get s !i do
    incr i
  done;
  !i = n

let tok_is_ci t s =
  let n = String.length s in
  t.tlen = n
  &&
  let line = t.line and st = t.tstart in
  let i = ref 0 in
  while
    !i < n
    && Char.lowercase_ascii (Bytes.unsafe_get line (st + !i))
       = Char.lowercase_ascii (String.unsafe_get s !i)
  do
    incr i
  done;
  !i = n

let tok_starts_with t c = t.tlen > 0 && Bytes.unsafe_get t.line t.tstart = c
let tok_find t tbl = Strtab.find_span tbl t.line ~pos:t.tstart ~len:t.tlen

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

(* 10^0 .. 10^22: every one is an exact double. *)
let pow10 =
  [|
    1e0; 1e1; 1e2; 1e3; 1e4; 1e5; 1e6; 1e7; 1e8; 1e9; 1e10; 1e11; 1e12; 1e13; 1e14; 1e15;
    1e16; 1e17; 1e18; 1e19; 1e20; 1e21; 1e22;
  |]

let two53 = 1 lsl 53

let is_digit c = c >= '0' && c <= '9'

(* Numbers the fast path cannot prove exact go through [float_of_string];
   a small direct-mapped memo keyed by the token bytes serves repeats
   (Bookshelf nets repeat a few dozen 17-digit library pin offsets). A
   memo hit returns the value [float_of_string] gave for the same bytes. *)
let memo_slot t =
  (* The length and the outer bytes tell most repeats apart; a hit is
     checked in full. *)
  let line = t.line and st = t.tstart and n = t.tlen in
  let h =
    if n >= 8 then
      Int64.to_int (Bytes.get_int64_ne line (st + n - 8))
      + (Int64.to_int (Bytes.get_int64_ne line st) * 31)
      + n
    else begin
      let h = ref n in
      for i = st to st + n - 1 do
        h := (!h * 31) + Char.code (Bytes.unsafe_get line i)
      done;
      !h
    end
  in
  let h = h * 0x9E3779B1 in
  (h lxor (h lsr 29)) land (memo_slots - 1)

let memo_hit t key =
  let line = t.line and st = t.tstart and n = t.tlen in
  String.length key = n
  &&
  let i = ref 0 in
  while !i + 8 <= n && String.get_int64_ne key !i = Bytes.get_int64_ne line (st + !i) do
    i := !i + 8
  done;
  while !i < n && String.unsafe_get key !i = Bytes.unsafe_get line (st + !i) do
    incr i
  done;
  !i = n

let slow_float t =
  let slot = memo_slot t in
  if memo_hit t (Array.unsafe_get t.memo_keys slot) then Array.unsafe_get t.memo_vals slot
  else
    match float_of_string_opt (scratch_view t) with
    | Some v when Float.is_finite v ->
        Array.unsafe_set t.memo_keys slot (Bytes.sub_string t.line t.tstart t.tlen);
        Array.unsafe_set t.memo_vals slot v;
        v
    | _ -> fail t "malformed number %S" (tok t)

(* Fast path (Clinger): a plain decimal [+-]digits[.digits][e[+-]digits]
   whose digit string is an integer m <= 2^53 and whose decimal exponent
   s is within +-22 is m * 10^s or m / 10^-s, one IEEE operation on two
   exact doubles, hence correctly rounded like strtod, which
   [float_of_string] calls. Everything else, and every token longer than
   [fast_max] (a %.17g print has 17 significant digits, past 2^53),
   takes [slow_float]. *)
let fast_max = 17

let exact_decimal t =
  let line = t.line and stop = t.tstart + t.tlen in
  let i = ref t.tstart in
  let neg = Bytes.unsafe_get line !i = '-' in
  if neg || Bytes.unsafe_get line !i = '+' then incr i;
  let m = ref 0 and digits = ref 0 and scale = ref 0 and exact = ref true in
  (* Past [m_cap] one more digit takes m above 2^53: not exact. *)
  let m_cap = two53 / 10 in
  let frac = ref false and fin = ref false in
  while not !fin do
    if !i >= stop then fin := true
    else
      let c = Bytes.unsafe_get line !i in
      if is_digit c then begin
        if !m <= m_cap then m := (!m * 10) + (Char.code c - 48) else exact := false;
        incr digits;
        if !frac then decr scale;
        incr i
      end
      else if c = '.' && not !frac then begin
        frac := true;
        incr i
      end
      else fin := true
  done;
  if !digits > 0 && !i < stop && (Bytes.unsafe_get line !i = 'e' || Bytes.unsafe_get line !i = 'E')
  then begin
    incr i;
    let eneg = !i < stop && Bytes.unsafe_get line !i = '-' in
    if eneg || (!i < stop && Bytes.unsafe_get line !i = '+') then incr i;
    let e = ref 0 and edigits = ref 0 in
    while !i < stop && is_digit (Bytes.unsafe_get line !i) do
      if !e < 100_000 then e := (!e * 10) + (Char.code (Bytes.unsafe_get line !i) - 48);
      incr edigits;
      incr i
    done;
    if !edigits = 0 then exact := false;
    scale := if eneg then !scale - !e else !scale + !e
  end;
  if !exact && !digits > 0 && !i = stop && !m <= two53 then
    if !m = 0 then if neg then -0.0 else 0.0
    else if !scale >= 0 && !scale <= 22 then
      let r = float_of_int !m *. Array.unsafe_get pow10 !scale in
      if neg then -.r else r
    else if !scale < 0 && !scale >= -22 then
      let r = float_of_int !m /. Array.unsafe_get pow10 (- !scale) in
      if neg then -.r else r
    else slow_float t
  else slow_float t

let tok_float t =
  let len = t.tlen in
  if len = 0 || len > num_scratch_max then
    fail t "malformed number %S" (Bytes.sub_string t.line t.tstart (min len 32));
  if len > fast_max then slow_float t else exact_decimal t

let tok_int t =
  let len = t.tlen in
  if len = 0 || len > num_scratch_max then
    fail t "malformed integer %S" (Bytes.sub_string t.line t.tstart (min len 32));
  let line = t.line and stop = t.tstart + len in
  let neg = Bytes.unsafe_get line t.tstart = '-' in
  let first = if neg then t.tstart + 1 else t.tstart in
  (* One to 18 plain digits cannot overflow; anything else (signs,
     underscores, 0x prefixes, overflow) is [int_of_string]'s to judge. *)
  let i = ref first and v = ref 0 in
  if stop - first <= 18 then
    while !i < stop && is_digit (Bytes.unsafe_get line !i) do
      v := (!v * 10) + (Char.code (Bytes.unsafe_get line !i) - 48);
      incr i
    done;
  if !i = stop && stop > first then if neg then - !v else !v
  else
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
  if not (next_tok t) then fail t "expected '%s'" lit;
  if not (tok_is_ci t lit) then fail t "expected '%s', got %S" lit (tok t)
