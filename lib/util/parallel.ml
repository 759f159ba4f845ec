(** Data-parallel loops over OCaml 5 domains, backed by a persistent
    worker pool (the contract is in the .mli). *)

let clamp n = max 1 (min 128 n)

(* The count [default ()] hands out. Kernels never read it: they read
   the value their owner was created with. *)
let default_domains = ref 1

let set_num_domains n = default_domains := clamp n

(* ------------------------------------------------------------------ *)
(* Persistent pool: [num_workers] parked domains plus the caller domain.
   One job at a time; dispatch bumps [generation] and broadcasts, the
   barrier waits for [pending] to drain. The pool only ever grows (to the
   largest worker count requested so far) — a value with fewer domains
   just leaves the extra workers parked, so a fixed domain count spawns each
   worker at most once per process. *)

let pool_mutex = Mutex.create ()

let work_ready = Condition.create ()

let work_done = Condition.create ()

let workers : unit Domain.t list ref = ref []

let num_workers = ref 0

let generation = ref 0

let current_job : (int -> unit) option ref = ref None

let job_chunks = ref 0

let pending = ref 0

let stop_flag = ref false

let spawn_count = ref 0

let exit_registered = ref false

(* First exception raised inside a worker body this job (re-raised at the
   caller after the barrier; the pool itself survives). *)
let worker_error : (exn * Printexc.raw_backtrace) option ref = ref None

(* True while a job is in flight; a nested dispatch would deadlock on the
   barrier, so it is rejected instead. *)
let busy = Atomic.make false

let spawned () = !spawn_count

let rec worker_loop wid my_gen =
  Mutex.lock pool_mutex;
  while !generation = my_gen && not !stop_flag do
    Condition.wait work_ready pool_mutex
  done;
  if !stop_flag then Mutex.unlock pool_mutex
  else begin
    let gen = !generation in
    let body = !current_job and chunks = !job_chunks in
    Mutex.unlock pool_mutex;
    (match body with
    | Some f when wid + 1 < chunks -> (
        try f (wid + 1)
        with e ->
          let bt = Printexc.get_raw_backtrace () in
          Mutex.lock pool_mutex;
          if !worker_error = None then worker_error := Some (e, bt);
          Mutex.unlock pool_mutex)
    | _ -> ());
    Mutex.lock pool_mutex;
    decr pending;
    if !pending = 0 then Condition.broadcast work_done;
    Mutex.unlock pool_mutex;
    worker_loop wid gen
  end

let shutdown () =
  Mutex.lock pool_mutex;
  let ws = !workers in
  if ws <> [] then begin
    stop_flag := true;
    Condition.broadcast work_ready;
    workers := [];
    num_workers := 0
  end;
  Mutex.unlock pool_mutex;
  List.iter Domain.join ws;
  Mutex.lock pool_mutex;
  stop_flag := false;
  Mutex.unlock pool_mutex

(* Grow the pool to at least [w] workers. Caller must not hold the lock. *)
let ensure_workers w =
  if !num_workers < w then begin
    Mutex.lock pool_mutex;
    while !num_workers < w do
      let wid = !num_workers in
      let gen = !generation in
      incr spawn_count;
      workers := Domain.spawn (fun () -> worker_loop wid gen) :: !workers;
      incr num_workers
    done;
    Mutex.unlock pool_mutex;
    if not !exit_registered then begin
      exit_registered := true;
      at_exit shutdown
    end
  end

(* Run [body c] for [c] in [0, chunks): chunk 0 on the calling domain,
   the rest on pool workers. Exceptions from any chunk re-raise here;
   the pool stays usable afterwards. *)
let run_pool ~chunks body =
  if not (Atomic.compare_and_set busy false true) then
    invalid_arg "Util.Parallel: nested parallel dispatch (a kernel body called a parallel entry point)";
  ensure_workers (chunks - 1);
  Mutex.lock pool_mutex;
  worker_error := None;
  current_job := Some body;
  job_chunks := chunks;
  pending := !num_workers;
  incr generation;
  Condition.broadcast work_ready;
  Mutex.unlock pool_mutex;
  let main_error =
    try
      body 0;
      None
    with e -> Some (e, Printexc.get_raw_backtrace ())
  in
  Mutex.lock pool_mutex;
  while !pending > 0 do
    Condition.wait work_done pool_mutex
  done;
  current_job := None;
  let werr = !worker_error in
  worker_error := None;
  Mutex.unlock pool_mutex;
  Atomic.set busy false;
  match main_error with
  | Some (e, bt) -> Printexc.raise_with_backtrace e bt
  | None -> (
      match werr with Some (e, bt) -> Printexc.raise_with_backtrace e bt | None -> ())

(* ------------------------------------------------------------------ *)
(* The pool as a value: a domain count and an optional stats hook. The
   hook observes per-call kernel stats (wall time, per-chunk times for
   imbalance) — the obs layer turns them into metrics without util
   depending on obs. *)

type stats = {
  kernel : string;
  n : int;
  chunks : int;
  dispatched : bool; (* ran on the pool, not inline below its grain *)
  total_s : float; (* wall time of the whole call *)
  chunk_s : float array; (* per-chunk wall time, length [chunks] *)
}

type t = { domains : int; instrument : (stats -> unit) option }

let create ?instrument n = { domains = clamp n; instrument }

let default () = { domains = !default_domains; instrument = None }

let domains t = t.domains

let now () = Unix.gettimeofday ()

(* Split [0, n) into [domains] contiguous chunks and run the non-empty
   ones: on the pool at or above [grain], inline (same partition) below
   it. A named call on a hooked value reports its stats. An unhooked
   1-domain call is a direct call of [f]: no wrapper closure. *)
let for_chunks t ?(grain = 256) ?name ~n f =
  let d = t.domains in
  match (t.instrument, name) with
  | None, _ when d = 1 -> f ~chunk:0 ~lo:0 ~hi:n
  | hook, name ->
      let per = (n + d - 1) / d in
      let body c =
        let lo = c * per and hi = min n ((c + 1) * per) in
        if lo < hi then f ~chunk:c ~lo ~hi
      in
      let dispatch = d > 1 && n >= grain in
      let run body =
        if dispatch then run_pool ~chunks:d body
        else
          for c = 0 to d - 1 do
            body c
          done
      in
      (match (hook, name) with
      | Some hook, Some kernel ->
          let chunk_s = Array.make d 0.0 in
          let t0 = now () in
          run (fun c ->
              let t0 = now () in
              body c;
              chunk_s.(c) <- now () -. t0);
          hook { kernel; n; chunks = d; dispatched = dispatch; total_s = now () -. t0; chunk_s }
      | _ -> run body)
