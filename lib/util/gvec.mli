(** Growable array (OCaml 5.1 lacks Dynarray): amortised O(1) push,
    O(1) random access. *)

type 'a t

val create : unit -> 'a t

val length : 'a t -> int

val push : 'a t -> 'a -> unit

(** Raises [Invalid_argument] when out of bounds. *)
val get : 'a t -> int -> 'a

(** Raises [Invalid_argument] when out of bounds. *)
val set : 'a t -> int -> 'a -> unit

(** Fresh array of the current contents. *)
val to_array : 'a t -> 'a array

val iter : ('a -> unit) -> 'a t -> unit

(** Reset to length 0 and release the backing array — old elements must
    become unreachable, not merely inaccessible, or a reused vector
    retains every previous element for the GC. *)
val clear : 'a t -> unit
