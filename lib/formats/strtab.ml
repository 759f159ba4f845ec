(** Open-addressing name table (see the interface). *)

type t = {
  mutable keys : string array;
  mutable vals : int array;
  mutable mask : int; (* capacity - 1; capacity is a power of two *)
  mutable count : int;
}

(* Physical-equality sentinel for empty slots; user keys must be
   non-empty so they can never alias it. *)
let empty_key = ""

let rec pow2_at_least n k = if k >= n then k else pow2_at_least n (k * 2)

let create ?(size_hint = 16) () =
  let cap = pow2_at_least (max 16 (size_hint * 2)) 16 in
  { keys = Array.make cap empty_key; vals = Array.make cap 0; mask = cap - 1; count = 0 }

let length t = t.count

(* FNV-1a (basis truncated to OCaml's 63-bit int); the string and span
   variants must agree byte for byte. *)
let fnv_prime = 0x100000001b3
let fnv_basis = 0x4bf29ce484222325

let hash_str (s : string) =
  let h = ref fnv_basis in
  for i = 0 to String.length s - 1 do
    h := (!h lxor Char.code (String.unsafe_get s i)) * fnv_prime
  done;
  !h land max_int

let hash_span (b : Bytes.t) pos len =
  let h = ref fnv_basis in
  for i = pos to pos + len - 1 do
    h := (!h lxor Char.code (Bytes.unsafe_get b i)) * fnv_prime
  done;
  !h land max_int

let span_eq (s : string) (b : Bytes.t) pos len =
  String.length s = len
  &&
  let i = ref 0 in
  while !i < len && String.unsafe_get s !i = Bytes.unsafe_get b (pos + !i) do
    incr i
  done;
  !i = len

let grow t =
  let old_keys = t.keys and old_vals = t.vals in
  let cap = (t.mask + 1) * 2 in
  t.keys <- Array.make cap empty_key;
  t.vals <- Array.make cap 0;
  t.mask <- cap - 1;
  Array.iteri
    (fun i k ->
      if k != empty_key then begin
        let j = ref (hash_str k land t.mask) in
        while t.keys.(!j) != empty_key do
          j := (!j + 1) land t.mask
        done;
        t.keys.(!j) <- k;
        t.vals.(!j) <- old_vals.(i)
      end)
    old_keys

let add t key v =
  if String.length key = 0 then invalid_arg "Strtab.add: empty key";
  if t.count * 2 >= t.mask + 1 then grow t;
  let j = ref (hash_str key land t.mask) in
  let placed = ref false in
  while not !placed do
    let k = t.keys.(!j) in
    if k == empty_key then begin
      t.keys.(!j) <- key;
      t.vals.(!j) <- v;
      t.count <- t.count + 1;
      placed := true
    end
    else if String.equal k key then begin
      t.vals.(!j) <- v;
      placed := true
    end
    else j := (!j + 1) land t.mask
  done

let find_span t b ~pos ~len =
  let j = ref (hash_span b pos len land t.mask) in
  let res = ref (-1) and stop = ref false in
  while not !stop do
    let k = Array.unsafe_get t.keys !j in
    if k == empty_key then stop := true
    else if span_eq k b pos len then begin
      res := Array.unsafe_get t.vals !j;
      stop := true
    end
    else j := (!j + 1) land t.mask
  done;
  !res
