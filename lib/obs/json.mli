(** Minimal JSON values — emitter and parser with no external dependency.
    Non-finite floats emit as [null]. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(** Appends the encoding of a value to a buffer. A finite float is
    written as C's [%.12g] when that reads back as the same float, else
    as [%.17g]. *)
val write : Buffer.t -> t -> unit

val to_string : t -> string

exception Parse_error of string

(** Parse a complete JSON document; raises {!Parse_error}. *)
val parse_exn : string -> t

val parse : string -> (t, string) result

(** Object field lookup ([None] on non-objects / missing keys). *)
val member : string -> t -> t option

(** Numeric coercion: [Int] and [Float] both answer. *)
val to_float : t -> float option

val to_int : t -> int option

val to_string_opt : t -> string option

val to_list : t -> t list option
