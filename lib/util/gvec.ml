(** Growable array (OCaml 5.1 lacks Dynarray). Amortised O(1) push,
    O(1) random access. *)

type 'a t = { mutable data : 'a array; mutable size : int }

let create () = { data = [||]; size = 0 }

let length t = t.size

let push t x =
  let cap = Array.length t.data in
  if t.size = cap then begin
    let ncap = max 8 (2 * cap) in
    let nd = Array.make ncap x in
    Array.blit t.data 0 nd 0 t.size;
    t.data <- nd
  end;
  t.data.(t.size) <- x;
  t.size <- t.size + 1

let get t i =
  if i < 0 || i >= t.size then invalid_arg "Gvec.get: out of bounds";
  t.data.(i)

let set t i x =
  if i < 0 || i >= t.size then invalid_arg "Gvec.set: out of bounds";
  t.data.(i) <- x

let to_array t = Array.sub t.data 0 t.size

let iter f t =
  for i = 0 to t.size - 1 do
    f t.data.(i)
  done

(* Dropping the backing array matters for correctness of long-lived
   processes, not just footprint: [size <- 0] alone would keep every old
   element reachable through [data] (the GC cannot collect them), so a
   reused builder would retain the previous load's strings and library
   cells for its whole lifetime. *)
let clear t =
  t.data <- [||];
  t.size <- 0
