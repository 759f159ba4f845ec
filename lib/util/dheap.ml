(** Binary min-heap of int payloads keyed by floats, reusable across
    searches ({!clear} keeps the arrays). Its one user is the k-worst-path
    search of [Sta.Paths], whose payloads index a flat arena and whose
    keys are negated completion bounds. *)

type t = {
  mutable keys : float array;
  mutable data : int array;
  mutable size : int;
}

let create () = { keys = [||]; data = [||]; size = 0 }

let length t = t.size

let is_empty t = t.size = 0

let clear t = t.size <- 0

let grow t =
  let cap = Array.length t.keys in
  if t.size = cap then begin
    let ncap = max 8 (2 * cap) in
    let nk = Array.make ncap 0.0 and nd = Array.make ncap 0 in
    Array.blit t.keys 0 nk 0 t.size;
    Array.blit t.data 0 nd 0 t.size;
    t.keys <- nk;
    t.data <- nd
  end

let swap t i j =
  let k = t.keys.(i) in
  t.keys.(i) <- t.keys.(j);
  t.keys.(j) <- k;
  let d = t.data.(i) in
  t.data.(i) <- t.data.(j);
  t.data.(j) <- d

let rec sift_up t i =
  if i > 0 then begin
    let p = (i - 1) / 2 in
    if t.keys.(p) > t.keys.(i) then begin
      swap t p i;
      sift_up t p
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let m = if l < t.size && t.keys.(l) < t.keys.(i) then l else i in
  let m = if r < t.size && t.keys.(r) < t.keys.(m) then r else m in
  if m <> i then begin
    swap t i m;
    sift_down t m
  end

let push t key x =
  grow t;
  t.keys.(t.size) <- key;
  t.data.(t.size) <- x;
  t.size <- t.size + 1;
  sift_up t (t.size - 1)

let pop t =
  if t.size = 0 then raise Not_found;
  let x = t.data.(0) in
  t.size <- t.size - 1;
  if t.size > 0 then begin
    t.keys.(0) <- t.keys.(t.size);
    t.data.(0) <- t.data.(t.size);
    sift_down t 0
  end;
  x

let peek_key t =
  if t.size = 0 then raise Not_found;
  t.keys.(0)
