(** Line-oriented streaming tokenizer shared by every format reader.

    Single pass, allocation-lean: input is pulled through a fixed chunk
    buffer, the current line lives in one reusable byte buffer, and
    tokens are (start, length) spans into it — nothing is materialized
    unless the caller asks ({!tok}). Comparisons, name lookups and
    integer parses allocate nothing; a number parse allocates its
    result's box, plus a memo key when it is a token the exact fast path
    cannot take and the memo has not seen ({!tok_float}). Errors
    raise {!Parse_error} carrying the current line number and a message
    prefixed with the scanner's [name].

    Limits (all reported as parse errors, never crashes): tokens are
    capped at {!max_token_len} bytes, lines at {!max_line_len}. CRLF
    endings are stripped; a stray ['\r'] inside a line stays part of its
    token (and typically surfaces as a malformed-number error). *)

(** [Parse_error (line, msg)]: malformed input at 1-based [line] (0 when
    the file could not be opened). Every format reader raises it;
    [Auto.load] turns it into [Util.Errors.Parse_failed]. *)
exception Parse_error of int * string

type t

val max_token_len : int

val max_line_len : int

(** [specials] lists single characters that always form their own token
    (e.g. ["();"] for DEF, [":"] for Bookshelf). *)
val of_string : ?specials:string -> name:string -> string -> t

(** Raises [Parse_error (0, _)] when the file cannot be opened. [name]
    defaults to the basename. *)
val open_file : ?specials:string -> ?name:string -> string -> t

(** Closes the underlying channel ([open_file] scanners only). *)
val close : t -> unit

val name : t -> string

(** 1-based number of the current line (0 before the first [next_line]). *)
val line_number : t -> int

(** Bytes of input after the current line: what the rest of the source
    could still hold. [max_int] when the source's length is unknown (a
    pipe, or a file reporting a length below the read position). Readers bound declared record counts by it before sizing any
    table from them. *)
val remaining_bytes : t -> int

(** Raise [Parse_error] at the current line. *)
val fail : t -> ('a, unit, string, 'b) format4 -> 'a

(** Raise [Parse_error] at an earlier recorded line (e.g. the NetDegree
    header of a net whose record turned out inconsistent). *)
val fail_at : t -> line:int -> ('a, unit, string, 'b) format4 -> 'a

(** Advance to the next line; [false] at end of input. Resets the token
    cursor. *)
val next_line : t -> bool

(** Advance to the next token on the current line. [false] at end of
    line or at a ['#'] comment marker (which is not consumed — see
    {!at_hash}/{!skip_hash}). *)
val next_tok : t -> bool

(** Next token, moving across line boundaries; [false] only at end of
    input. Comment markers skip the remainder of their line. *)
val next_tok_ml : t -> bool

(** The scan stopped at an unconsumed ['#']. *)
val at_hash : t -> bool

(** Step over a pending ['#'] so the rest of the comment line can be
    tokenized (format metadata rides in ["# etdp ..."] comments). *)
val skip_hash : t -> unit

(** Materialize the current token (fresh string). *)
val tok : t -> string

val tok_len : t -> int

(** Compare without allocating. *)
val tok_is : t -> string -> bool

(** ASCII-case-insensitive {!tok_is}. *)
val tok_is_ci : t -> string -> bool

val tok_starts_with : t -> char -> bool

(** Resolve the current token in a {!Strtab} without materializing it;
    [-1] when unbound. *)
val tok_find : t -> Strtab.t -> int

(** Parse the current token; [Parse_error] on malformed input. The
    result has [float_of_string]'s bits for the token's bytes: plain
    decimals it can prove exact are parsed in place, the rest go through
    [float_of_string] behind a small memo of recent tokens. *)
val tok_float : t -> float

val tok_int : t -> int

(** [next_tok] or fail with ["expected <what>"]. *)
val expect : t -> what:string -> unit

(** [expect] + {!tok_float}. *)
val expect_float : t -> what:string -> float

(** [expect] + {!tok_int}. *)
val expect_int : t -> what:string -> int

(** [expect] + fail unless the token equals [lit] (case-insensitive). *)
val expect_lit : t -> string -> unit
