(** Open-addressing string -> int table with an allocation-free lookup
    keyed by a byte span, so net/placement records can resolve cell names
    against the millions interned from the nodes section without
    materializing a string per reference. *)

type t

val create : ?size_hint:int -> unit -> t

val length : t -> int

(** Bind [key] (must be non-empty) to [v]. An existing binding is
    overwritten — callers wanting duplicate detection probe first. *)
val add : t -> string -> int -> unit

(** Value bound to the bytes [b.[pos .. pos+len-1]], or [-1] when
    unbound. Allocates nothing. *)
val find_span : t -> Bytes.t -> pos:int -> len:int -> int
