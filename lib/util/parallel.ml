(** Data-parallel loops over OCaml 5 domains, backed by a persistent
    worker pool.

    Stands in for the paper's CUDA kernels: all heavy per-pin / per-bin
    kernels are embarrassingly parallel, so a chunked domain fan-out keeps
    the same semantics. Workers are spawned lazily on the first dispatch
    and parked on a condition variable between calls, so a Nesterov
    iteration issuing dozens of kernel launches pays the spawn cost once
    per process, not once per call.

    Determinism contract (see the .mli): every parallel body writes
    locations no other chunk writes, and no float reduction crosses a
    chunk boundary, so results do not depend on the domain count. *)

let num_domains = ref 1

let set_num_domains n = num_domains := max 1 (min 128 n)

(* ------------------------------------------------------------------ *)
(* Persistent pool: [num_workers] parked domains plus the caller domain.
   One job at a time; dispatch bumps [generation] and broadcasts, the
   barrier waits for [pending] to drain. The pool only ever grows (to the
   largest worker count requested so far) — shrinking [num_domains] just
   leaves the extra workers parked, so a fixed domain count spawns each
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
(* Instrumentation hook: per-call kernel stats (wall time, per-chunk
   times for imbalance) delivered to an installed observer — the obs
   layer wires this to histograms without util depending on obs. *)

type stats = {
  kernel : string;
  n : int;
  chunks : int;
  total_s : float; (* wall time of the whole call *)
  chunk_s : float array; (* per-chunk wall time, length [chunks] *)
}

let instrument : (stats -> unit) option ref = ref None

let set_instrument h = instrument := h

let instrumented () = !instrument <> None

let now () = Unix.gettimeofday ()

let run_inline ~chunks body =
  for c = 0 to chunks - 1 do
    body c
  done

(* Run [body] over [chunks] chunk ids, via the pool when [dispatch],
   inline otherwise; report to the instrument hook when installed and the
   call is named. *)
let launch ?name ~n ~chunks ~dispatch body =
  match (!instrument, name) with
  | Some hook, Some kernel ->
      let chunk_s = Array.make chunks 0.0 in
      let timed c =
        let t0 = now () in
        body c;
        chunk_s.(c) <- now () -. t0
      in
      let t0 = now () in
      if dispatch then run_pool ~chunks timed else run_inline ~chunks timed;
      hook { kernel; n; chunks; total_s = now () -. t0; chunk_s }
  | _ -> if dispatch then run_pool ~chunks body else run_inline ~chunks body

(* ------------------------------------------------------------------ *)
(* Entry points. [grain] is the dispatch threshold: below it the call
   runs inline (on the same chunk partition); at or above it the pool is
   used. *)

let seq_for n f =
  for i = 0 to n - 1 do
    f i
  done

let for_ ?(grain = 1024) ?name n f =
  let d = !num_domains in
  if d <= 1 || n < grain then launch ?name ~n ~chunks:1 ~dispatch:false (fun _ -> seq_for n f)
  else begin
    let per = (n + d - 1) / d in
    let body c =
      let lo = c * per and hi = min n ((c + 1) * per) in
      for i = lo to hi - 1 do
        f i
      done
    in
    launch ?name ~n ~chunks:d ~dispatch:true body
  end

let chunk_count ~n = if !num_domains <= 1 || n <= 0 then 1 else !num_domains

let for_chunks ?(grain = 256) ?name ~n f =
  let d = !num_domains in
  if d <= 1 then launch ?name ~n ~chunks:1 ~dispatch:false (fun _ -> f ~chunk:0 ~lo:0 ~hi:n)
  else begin
    let per = (n + d - 1) / d in
    let body c =
      let lo = c * per and hi = min n ((c + 1) * per) in
      if lo < hi then f ~chunk:c ~lo ~hi
    in
    launch ?name ~n ~chunks:d ~dispatch:(n >= grain) body
  end
