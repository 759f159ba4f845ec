(** Binary min-heap of int payloads keyed by floats, reusable across
    searches. Used by the k-worst-path search of [Sta.Paths] (keys are
    negated completion bounds, payloads index its arena). For max-heap
    behaviour insert negated keys. *)

type t

val create : unit -> t

val length : t -> int

val is_empty : t -> bool

(** Empty the heap, keeping its storage. *)
val clear : t -> unit

val push : t -> float -> int -> unit

(** Remove the entry with the smallest key and return its payload;
    raises [Not_found] when empty. Read the key first with {!peek_key}
    when it is needed. *)
val pop : t -> int

(** Smallest key without removing it; raises [Not_found] when empty. *)
val peek_key : t -> float
