(** Minimal JSON values: enough to emit trace/report files and to parse
    them back in [trace_report] and the tests. No external dependency —
    the toolchain image carries no yojson.

    Emission notes: non-finite floats have no JSON encoding, so they are
    emitted as [null]; object keys are written in the order given. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* ---- emission ---- *)

let hex = "0123456789abcdef"

(* Appends [s] to [buf] as a quoted JSON string; each run of bytes that
   needs no escape is copied in one call. *)
let escape_string buf s =
  Buffer.add_char buf '"';
  let n = String.length s in
  let run = ref 0 in
  for i = 0 to n - 1 do
    let c = String.unsafe_get s i in
    if c = '"' || c = '\\' || c < ' ' then begin
      if i > !run then Buffer.add_substring buf s !run (i - !run);
      run := i + 1;
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c ->
          Buffer.add_string buf "\\u00";
          Buffer.add_char buf hex.[Char.code c lsr 4];
          Buffer.add_char buf hex.[Char.code c land 15]
    end
  done;
  if n > !run then Buffer.add_substring buf s !run (n - !run);
  Buffer.add_char buf '"'

(* ---- numbers ----

   A finite float is written as C's [%.12g] if that reads back as the
   same float, else as [%.17g]. [add_float] produces those bytes with
   integer and FMA arithmetic and keeps printf for the values it cannot
   settle exactly (DESIGN.md §9). *)

(* 10^0 .. 10^22: every one is an exact double. *)
let pow10 = Array.init 23 (fun i -> float_of_string ("1e" ^ string_of_int i))

let max_scale = Array.length pow10 - 1

(* 10^0 .. 10^18 as ints. *)
let ipow10 = Array.init 19 (fun i -> int_of_string ("1" ^ String.make i '0'))

let no_fast = min_int

(* ⌊log10 |f|⌋ for [f] <> 0, or [no_fast] outside [-11, 11]. Floats
   are passed as the caller's boxed [f] and |f| is taken in each
   function, so no new box is made. [e] is a guess (from [Float.log10],
   which may be one off next to a power of ten); it is checked exactly
   on hi + lo = |f|·10^(11-e), which must lie in [10^11, 10^12). *)
let rec decimal_exponent f e =
  let x = Float.abs f in
  let p = 11 - e in
  if p < 0 || p > max_scale then no_fast
  else begin
    let s = Array.unsafe_get pow10 p in
    let hi = x *. s in
    let lo = Float.fma x s (-.hi) in
    if hi < 1e11 || (hi = 1e11 && lo < 0.0) then decimal_exponent f (e - 1)
    else if hi > 1e12 || (hi = 1e12 && lo >= 0.0) then decimal_exponent f (e + 1)
    else e
  end

(* |f|·10^p rounded to the nearest integer, ties to even, for 0 <= p <= 22.
   hi + lo is the product exactly: the FMA residual lo is representable
   and |lo| <= ulp(hi)/2. From 2^52 up hi is an integer and lo rounds
   alone. Below it hi's fraction is a multiple of ulp(hi), so frac - 0.5
   is exact and lo only decides a tie. *)
let round_scaled f p =
  let x = Float.abs f in
  let s = Array.unsafe_get pow10 p in
  let hi = x *. s in
  let lo = Float.fma x s (-.hi) in
  if hi >= 0x1p52 then begin
    let fl = Float.floor lo in
    let r = lo -. fl in
    let n = int_of_float hi + int_of_float fl in
    if r > 0.5 || (r = 0.5 && n land 1 = 1) then n + 1 else n
  end
  else begin
    let fl = Float.floor hi in
    let d = hi -. fl -. 0.5 in
    let n = int_of_float fl in
    if d > 0.0 || (d = 0.0 && (lo > 0.0 || (lo = 0.0 && n land 1 = 1))) then n + 1 else n
  end

let rec trailing_zeros n = if n mod 10 = 0 then 1 + trailing_zeros (n / 10) else 0

(* The [k] low digits of [n], least significant first. *)
let rec reverse_digits n k acc =
  if k = 0 then acc else reverse_digits (n / 10) (k - 1) ((acc * 10) + (n mod 10))

(* Writes the next [k] digits of a digit-reversed [r] ('0' once it runs
   out) and returns the rest. *)
let rec emit buf r k =
  if k = 0 then r
  else begin
    Buffer.add_char buf (Char.unsafe_chr (48 + (r mod 10)));
    emit buf (r / 10) (k - 1)
  end

(* C's %g layout, sign excluded, of [n] (exactly [prec] digits) times
   10^(e - prec + 1): exponent form when e < -4 or e >= prec, trailing
   zeros stripped, a two-digit exponent (|e| <= 12 here). *)
let add_g buf n e prec =
  let z = trailing_zeros n in
  let nd = prec - z in
  let r = reverse_digits (n / Array.unsafe_get ipow10 z) nd 0 in
  if e < -4 || e >= prec then begin
    let r = emit buf r 1 in
    if nd > 1 then begin
      Buffer.add_char buf '.';
      ignore (emit buf r (nd - 1))
    end;
    Buffer.add_char buf 'e';
    Buffer.add_char buf (if e < 0 then '-' else '+');
    Buffer.add_char buf (Char.unsafe_chr (48 + (abs e / 10)));
    Buffer.add_char buf (Char.unsafe_chr (48 + (abs e mod 10)))
  end
  else if e >= 0 then begin
    let r = emit buf r (e + 1) in
    if nd > e + 1 then begin
      Buffer.add_char buf '.';
      ignore (emit buf r (nd - e - 1))
    end
  end
  else begin
    Buffer.add_string buf "0.";
    ignore (emit buf 0 (-e - 1));
    ignore (emit buf r nd)
  end

(* Rounds |f| > 0, of exponent [e], to [prec] significant digits and
   writes them in %g layout; false, with nothing written, when 10^p is
   not exact for p = prec-1-e. At 12 digits it is also false when the
   digits do not read back as |f|: N < 2^53 and |q| <= 22, so N·10^q is
   one correctly rounded operation, the value strtod returns for those
   digits (Clinger's fast path). *)
let add_rounded buf f e prec =
  let p = prec - 1 - e in
  p <= max_scale
  && begin
       let n = round_scaled f p in
       (* Rounding up to 10^prec carries into the exponent. *)
       let carry = n = Array.unsafe_get ipow10 prec in
       let n = if carry then n / 10 else n in
       let e = if carry then e + 1 else e in
       let q = e - prec + 1 in
       let v = float_of_int n in
       (* 17 digits always read back. *)
       let exact =
         prec = 17
         || (if q >= 0 then v *. Array.unsafe_get pow10 q else v /. Array.unsafe_get pow10 (-q))
            = Float.abs f
       in
       if exact then add_g buf n e prec;
       exact
     end

let printf_repr f =
  let s = Printf.sprintf "%.12g" f in
  if float_of_string s = f then s else Printf.sprintf "%.17g" f

let add_float buf f =
  if not (Float.is_finite f) then Buffer.add_string buf "null"
  else if f = 0.0 then Buffer.add_string buf (if 1.0 /. f < 0.0 then "-0" else "0")
  else begin
    let e = decimal_exponent f (int_of_float (Float.floor (Float.log10 (Float.abs f)))) in
    let pos = Buffer.length buf in
    if f < 0.0 then Buffer.add_char buf '-';
    if e = no_fast || not (add_rounded buf f e 12 || add_rounded buf f e 17) then begin
      Buffer.truncate buf pos;
      Buffer.add_string buf (printf_repr f)
    end
  end

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f -> add_float buf f
  | String s -> escape_string buf s
  | List xs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char buf ',';
          write buf x)
        xs;
      Buffer.add_char buf ']'
  | Obj kvs ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          escape_string buf k;
          Buffer.add_char buf ':';
          write buf v)
        kvs;
      Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  write buf v;
  Buffer.contents buf

(* ---- parsing (recursive descent) ---- *)

exception Parse_error of string

let parse_exn (s : string) : t =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word value =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      value
    end
    else fail ("expected " ^ word)
  in
  (* The four hex digits of a \u escape, as a code unit. *)
  let hex4 () =
    if !pos + 4 > n then fail "bad \\u escape";
    let code = ref 0 in
    for i = !pos to !pos + 3 do
      let d =
        match s.[i] with
        | '0' .. '9' as c -> Char.code c - 48
        | 'a' .. 'f' as c -> Char.code c - 87
        | 'A' .. 'F' as c -> Char.code c - 55
        | _ -> fail "bad \\u escape"
      in
      code := (!code * 16) + d
    done;
    pos := !pos + 4;
    !code
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec loop () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      advance ();
      match c with
      | '"' -> Buffer.contents buf
      | '\\' -> (
          if !pos >= n then fail "unterminated escape";
          let e = s.[!pos] in
          advance ();
          match e with
          | '"' | '\\' | '/' ->
              Buffer.add_char buf e;
              loop ()
          | 'n' ->
              Buffer.add_char buf '\n';
              loop ()
          | 't' ->
              Buffer.add_char buf '\t';
              loop ()
          | 'r' ->
              Buffer.add_char buf '\r';
              loop ()
          | 'b' ->
              Buffer.add_char buf '\b';
              loop ()
          | 'f' ->
              Buffer.add_char buf '\012';
              loop ()
          | 'u' ->
              let code = hex4 () in
              let code =
                if code >= 0xD800 && code <= 0xDBFF then begin
                  (* A high surrogate must be followed by an escaped low
                     one; the pair is one code point above the BMP. *)
                  if not (!pos + 2 <= n && s.[!pos] = '\\' && s.[!pos + 1] = 'u') then
                    fail "lone surrogate in \\u escape";
                  pos := !pos + 2;
                  let lo = hex4 () in
                  if lo < 0xDC00 || lo > 0xDFFF then fail "lone surrogate in \\u escape";
                  0x10000 + ((code - 0xD800) lsl 10) + (lo - 0xDC00)
                end
                else if code >= 0xDC00 && code <= 0xDFFF then fail "lone surrogate in \\u escape"
                else code
              in
              Buffer.add_utf_8_uchar buf (Uchar.of_int code);
              loop ()
          | _ -> fail "unknown escape")
      | c ->
          Buffer.add_char buf c;
          loop ()
    in
    loop ()
  in
  let parse_number () =
    let start = !pos in
    let is_num_char c =
      match c with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
    in
    while !pos < n && is_num_char s.[!pos] do
      advance ()
    done;
    let tok = String.sub s start (!pos - start) in
    match int_of_string_opt tok with
    | Some i -> Int i
    | None -> (
        match float_of_string_opt tok with
        | Some f -> Float f
        | None -> fail ("bad number " ^ tok))
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '"' -> String (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          List []
        end
        else begin
          let rec items acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                items (v :: acc)
            | Some ']' ->
                advance ();
                List.rev (v :: acc)
            | _ -> fail "expected ',' or ']'"
          in
          List (items [])
        end
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let rec members acc =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                members ((k, v) :: acc)
            | Some '}' ->
                advance ();
                List.rev ((k, v) :: acc)
            | _ -> fail "expected ',' or '}'"
          in
          Obj (members [])
        end
    | Some _ -> parse_number ()
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let parse s : (t, string) result =
  match parse_exn s with v -> Ok v | exception Parse_error msg -> Error msg

(* ---- accessors ---- *)

let member key = function Obj kvs -> List.assoc_opt key kvs | _ -> None

let to_float = function Int i -> Some (float_of_int i) | Float f -> Some f | _ -> None

let to_int = function Int i -> Some i | _ -> None

let to_string_opt = function String s -> Some s | _ -> None

let to_list = function List xs -> Some xs | _ -> None
