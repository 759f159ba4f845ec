(** The analytical global placement loop (vanilla DREAMPlace):

      min_x,y  sum_e w_e * WA_e(x, y) + lambda * Energy(x, y)

    solved with preconditioned Nesterov. Timing-driven flows plug in via
    [hooks], called every iteration: [on_round] after the reference
    placement is materialised (where a TDP flow decides whether to run
    STA and refresh weights), and [extra_grad] after the density gradient
    (where it adds e.g. the pin-to-pin attraction loss). When timing
    rounds fire is the flow's rule, not the engine's. *)

open Netlist

type params = {
  max_iters : int;
  min_iters : int;
  seed : int;
  warm_start : bool; (* keep the design's current positions instead of the
                        Gaussian initial spread — incremental re-placement
                        resumes from the previous converged solution *)
}

let default_params = { max_iters = 900; min_iters = 150; seed = 1; warm_start = false }

(* Engine constants (DESIGN.md §6, "GP constants"). *)
let target_density = 1.0
let stop_overflow = 0.07
let gamma_scale = 4.0 (* WA gamma in bin widths at high overflow *)
let lambda_mult = 1.05 (* per-iteration density multiplier growth *)
let noise_sigma = 2.0 (* initial spread, in bin widths *)
let max_recoveries = 5

type hooks = {
  on_round : iter:int -> overflow:float -> unit;
  extra_grad : iter:int -> wl_norm:float -> gx:float array -> gy:float array -> unit;
      (* [wl_norm] is the L1 norm of the pure wirelength gradient over the
         movable cells this iteration — the stable yardstick auxiliary
         (timing) forces should be normalised against. *)
}

let auto_bins (d : Design.t) =
  let n = Design.num_movable d in
  let rec pow2 v = if v >= 256 || v * v >= n then v else pow2 (2 * v) in
  max 16 (pow2 16)

(* Pack movable coordinates into the optimizer vector [x...; y...]. *)
let pack d movable =
  let nm = Array.length movable in
  let vec = Array.make (2 * nm) 0.0 in
  Array.iteri
    (fun i id ->
      vec.(i) <- d.Design.x.{id};
      vec.(nm + i) <- d.Design.y.{id})
    movable;
  vec

let unpack d movable vec =
  let nm = Array.length movable in
  for i = 0 to nm - 1 do
    let id = movable.(i) in
    d.Design.x.{id} <- vec.(i);
    d.Design.y.{id} <- vec.(nm + i)
  done

(** Spread movable cells around the die centre with Gaussian noise — the
    standard analytic-placement initialisation. *)
let initial_spread (d : Design.t) ~bin_w ~bin_h ~seed =
  let rng = Util.Rng.create seed in
  let ctr = Geom.Rect.center d.die in
  for i = 0 to Design.num_cells d - 1 do
    if Design.is_movable d i then begin
      d.x.{i} <- Util.Rng.gaussian rng ~mean:ctr.Geom.Point.x ~stddev:(noise_sigma *. bin_w);
      d.y.{i} <- Util.Rng.gaussian rng ~mean:ctr.Geom.Point.y ~stddev:(noise_sigma *. bin_h)
    end
  done;
  Design.clamp_movable d

(* [Float.min]/[Float.max] by compare-and-select, with the same result
   bits, signed zeros and NaN included. A copy of the pair in
   densitygrid.ml: the dev profile's [-opaque] stops cross-module
   inlining, and a call would box its float arguments. *)
let[@inline] fmin x y =
  if x < y then x
  else if y < x then y
  else if x = y then if x = 0.0 then -.(-.x -. y) else y
  else if x <> x then x
  else y

let[@inline] fmax x y =
  if x > y then x
  else if y > x then y
  else if x = y then if x = 0.0 then x +. y else x
  else if x <> x then x
  else y

type result = {
  iters : int;
  final_hpwl : float;
  final_overflow : float;
}

let run ?(par = Util.Parallel.default ()) ?(params = default_params) ?hooks ?(obs = Obs.Ctx.null)
    ?heartbeat ?fault (d : Design.t) =
  let tick name f = Obs.Ctx.span obs name f in
  let bins = auto_bins d in
  let grid = Densitygrid.create ~par d ~bins_x:bins ~bins_y:bins in
  let electro = Electro.create ~obs grid in
  let movable = Array.of_list (Design.movable_ids d) in
  let nm = Array.length movable in
  if nm = 0 then Util.Errors.invalid_design ~design:d.Design.name [ "no movable cells" ];
  let movable_area = Design.movable_area d in
  let bin_w = grid.Densitygrid.bin_w and bin_h = grid.Densitygrid.bin_h in
  (* Warm starts resume from whatever the design currently holds (the
     daemon's previous converged placement plus an ECO delta); clamping
     still applies so an out-of-die delta cannot seed the optimizer with
     an infeasible iterate. *)
  if params.warm_start then Design.clamp_movable d
  else initial_spread d ~bin_w ~bin_h ~seed:params.seed;
  let opt = ref (Nesterov.create ~obs (pack d movable)) in
  (* Per-cell preconditioner data. *)
  let pin_count = Array.make (Design.num_cells d) 0 in
  for p = 0 to Design.num_pins d - 1 do
    if d.pin_net.(p) >= 0 then begin
      let o = d.pin_owner.(p) in
      pin_count.(o) <- pin_count.(o) + 1
    end
  done;
  let gx = Array.make (Design.num_cells d) 0.0 in
  let gy = Array.make (Design.num_cells d) 0.0 in
  (* Density-gradient scratch, zeroed and refilled in place every
     iteration: the steady-state loop never allocates per-cell arrays. *)
  let dgx = Array.make (Design.num_cells d) 0.0 in
  let dgy = Array.make (Design.num_cells d) 0.0 in
  let wl_ws = Wirelength.make_ws ~par d in
  let gvec = Array.make (2 * nm) 0.0 in
  (* Single-slot accumulator for the per-iteration norm reductions: a
     float [ref] would box one float per element summed. *)
  let nacc = Array.make 1 0.0 in
  let lambda = ref 0.0 in
  let iter = ref 0 in
  let stop = ref false in
  let converged_once = ref false in
  let last_overflow = ref 1.0 in
  (* ---- divergence guard state ----
     [last_good] is the most recent placement verified finite end-to-end
     (the HPWL sum touches every coordinate, so a finite HPWL proves the
     whole iterate finite) together with the density multiplier at that
     point. On detecting a non-finite gradient or iterate the design and
     optimizer roll back there and the step bounds back off; exhausting
     [max_recoveries] consecutive rollbacks without an intervening
     verified checkpoint is a hard structured failure. *)
  let last_good = ref (Design.snapshot d, 0.0) in
  let consecutive_recoveries = ref 0 in
  let just_recovered = ref false in
  let backoff = ref 1.0 in
  let recover ~what =
    Obs.Ctx.count obs "guard.nan_detected";
    if !consecutive_recoveries >= max_recoveries then
      Util.Errors.diverged ~stage:"globalplace" ~recoveries:!consecutive_recoveries
        (Printf.sprintf "non-finite %s at iteration %d; %d consecutive rollbacks exhausted"
           what !iter !consecutive_recoveries);
    incr consecutive_recoveries;
    just_recovered := true;
    let snap, lam = !last_good in
    Design.restore d snap;
    Design.clamp_movable d;
    lambda := lam;
    opt := Nesterov.create ~obs (pack d movable);
    backoff := Float.max 1e-3 (!backoff *. 0.5);
    Obs.Ctx.count obs "guard.rollbacks";
    Obs.Log.warn "[gp %s] non-finite %s at iter %d: rolled back (recovery %d/%d, backoff %.3g)"
      d.name what !iter !consecutive_recoveries max_recoveries !backoff
  in
  (* Per-movable box keeping the cell on the die, fixed for the run
     (die and cell sizes do not change during placement). *)
  let lo_x = Array.make nm 0.0 and hi_x = Array.make nm 0.0 in
  let lo_y = Array.make nm 0.0 and hi_y = Array.make nm 0.0 in
  for i = 0 to nm - 1 do
    let id = movable.(i) in
    let hw = d.w.{id} /. 2.0 and hh = d.h.{id} /. 2.0 in
    lo_x.(i) <- d.die.xl +. hw;
    hi_x.(i) <- d.die.xh -. hw;
    lo_y.(i) <- d.die.yl +. hh;
    hi_y.(i) <- d.die.yh -. hh
  done;
  let clamp vec =
    (* Project each candidate position so the cell stays on the die. *)
    for i = 0 to nm - 1 do
      vec.(i) <- fmax lo_x.(i) (fmin hi_x.(i) vec.(i));
      vec.(nm + i) <- fmax lo_y.(i) (fmin hi_y.(i) vec.(nm + i))
    done
  in
  while (not !stop) && !iter < params.max_iters do
    (* One [gp_iter] span per iteration: iter/overflow/gamma/lambda
       always, hpwl whenever this iteration computes it. *)
    Obs.Ctx.span obs "gp_iter" (fun () ->
    just_recovered := false;
    (* Materialise the reference point; all evaluation happens there. *)
    unpack d movable (Nesterov.reference !opt);
    let overflow =
      tick "density" (fun () ->
          Densitygrid.update grid d;
          let overflow = Densitygrid.overflow grid ~target_density ~movable_area in
          Electro.solve electro ~target_density;
          overflow)
    in
    last_overflow := overflow;
    (match hooks with Some h -> h.on_round ~iter:!iter ~overflow | None -> ());
    (* gamma: large when the design is spread-chaotic, small near
       convergence so WA approaches true HPWL. *)
    let gamma = bin_w *. gamma_scale *. (0.1 +. (0.9 *. Float.min 1.0 overflow)) in
    Array.fill gx 0 (Array.length gx) 0.0;
    Array.fill gy 0 (Array.length gy) 0.0;
    let _wl = tick "wl_grad" (fun () -> Wirelength.wa_wirelength_grad_ws wl_ws d ~gamma ~gx ~gy) in
    (* The [wl_grad] fault site, caught by the gradient guard below. *)
    (match fault with
    | None -> ()
    | Some f ->
        for i = 0 to nm - 1 do
          let id = movable.(i) in
          gx.(id) <- f gx.(id);
          gy.(id) <- f gy.(id)
        done);
    nacc.(0) <- 0.0;
    for i = 0 to nm - 1 do
      let id = movable.(i) in
      nacc.(0) <- nacc.(0) +. Float.abs gx.(id) +. Float.abs gy.(id)
    done;
    let wl_norm = nacc.(0) in
    if !lambda = 0.0 then begin
      (* First iteration: balance wirelength and density gradient norms. *)
      Array.fill dgx 0 (Array.length dgx) 0.0;
      Array.fill dgy 0 (Array.length dgy) 0.0;
      Electro.add_grad electro d ~gx:dgx ~gy:dgy;
      nacc.(0) <- 0.0;
      for i = 0 to nm - 1 do
        let id = movable.(i) in
        nacc.(0) <- nacc.(0) +. Float.abs dgx.(id) +. Float.abs dgy.(id)
      done;
      let den_norm = nacc.(0) in
      (* Cold starts under-weight density (0.1x) and let the multiplier
         grow into it. A warm start is already near-legal: its overflow
         is below the stop target, so the growth latch freezes lambda at
         the init value — an 0.1x init there lets wirelength pull the
         placement back into overlap that legalization later has to
         shred. Balance at full strength instead. *)
      let balance = if params.warm_start then 1.0 else 0.1 in
      lambda := if den_norm > 1e-30 then balance *. wl_norm /. den_norm else 1.0
    end;
    (* Density gradient scaled by lambda. *)
    Array.fill dgx 0 (Array.length dgx) 0.0;
    Array.fill dgy 0 (Array.length dgy) 0.0;
    tick "density" (fun () -> Electro.add_grad electro d ~gx:dgx ~gy:dgy);
    for i = 0 to nm - 1 do
      let id = movable.(i) in
      gx.(id) <- gx.(id) +. (!lambda *. dgx.(id));
      gy.(id) <- gy.(id) +. (!lambda *. dgy.(id))
    done;
    (match hooks with Some h -> h.extra_grad ~iter:!iter ~wl_norm ~gx ~gy | None -> ());
    (* Precondition and pack. *)
    for i = 0 to nm - 1 do
      let id = movable.(i) in
      let p = fmax 1.0 (float_of_int pin_count.(id) +. (!lambda *. d.w.{id} *. d.h.{id})) in
      gvec.(i) <- gx.(id) /. p;
      gvec.(nm + i) <- gy.(id) /. p
    done;
    (* Guard: a non-finite gradient (density/FFT blowup, timing-force
       NaN, injected fault) must never reach the optimizer — it would
       poison u/v/prev_g and every later iterate. *)
    if not (Util.Guard.all_finite gvec) then begin
      Obs.Ctx.count obs "guard.gradient_nonfinite";
      recover ~what:"gradient"
    end
    else begin
      (* Express step bounds as average cell displacement in bin widths;
         [backoff] shrinks them after a rollback and relaxes back to 1
         as verified checkpoints accumulate. *)
      nacc.(0) <- 0.0;
      for i = 0 to (2 * nm) - 1 do
        nacc.(0) <- nacc.(0) +. Float.abs gvec.(i)
      done;
      let mean_g = Float.max 1e-30 (nacc.(0) /. float_of_int (2 * nm)) in
      let fallback_step = 0.25 *. bin_w /. mean_g *. !backoff in
      let max_step = 25.0 *. bin_w /. mean_g *. !backoff in
      tick "optimizer" (fun () -> Nesterov.step !opt ~g:gvec ~fallback_step ~max_step ~clamp);
      (* Cheap sampled probe of the fresh iterate (the periodic HPWL
         checkpoint below is the exhaustive pass). *)
      if not (Util.Guard.sampled_finite ~offset:!iter (Nesterov.iterate !opt)) then
        recover ~what:"iterate"
    end;
    (* The density multiplier grows until the overflow target is first
       reached, then latches: timing forces perturb the density, and
       resuming the exponential growth would let lambda run away and shred
       the placement (observed as HPWL divergence in the timing phase). *)
    if overflow < stop_overflow then converged_once := true;
    if not !converged_once then lambda := !lambda *. lambda_mult;
    (* The attribute list and its boxed floats are built only when
       someone records them: under [Obs.Ctx.null] the iteration
       allocates (almost) nothing. *)
    if Obs.Ctx.enabled obs then
      Obs.Ctx.span_attrs obs
        [
          ("iter", Obs.Json.Int !iter);
          ("overflow", Obs.Json.Float overflow);
          ("gamma", Obs.Json.Float gamma);
          ("lambda", Obs.Json.Float !lambda);
        ];
    let done_now = overflow < stop_overflow && !iter >= params.min_iters in
    (* Verified checkpoints every 10th iteration and on the last one: a
       warm start sits below [stop_overflow] from its first iteration,
       and checkpointing each of those would cost an unpack, a full HPWL
       and a snapshot per iteration. *)
    if (not !just_recovered) && (!iter mod 10 = 0 || done_now) then begin
      unpack d movable (Nesterov.iterate !opt);
      let hpwl = Design.total_hpwl d in
      if Util.Guard.is_finite hpwl then begin
        (* Verified checkpoint: HPWL touched every coordinate and came
           back finite, so this placement is safe to roll back to. *)
        last_good := (Design.snapshot d, !lambda);
        consecutive_recoveries := 0;
        backoff := Float.min 1.0 (!backoff *. 1.25);
        (match heartbeat with Some hb -> Obs.Heartbeat.note_hpwl hb hpwl | None -> ());
        if Obs.Ctx.enabled obs then Obs.Ctx.span_attrs obs [ ("hpwl", Obs.Json.Float hpwl) ];
        if Obs.Log.enabled Obs.Log.Debug then
          Obs.Log.emit Obs.Log.Debug
            (Printf.sprintf "[gp %s] iter %4d hpwl %.3e ovf %.3f" d.name !iter hpwl overflow)
      end
      else recover ~what:"iterate (checkpoint hpwl)"
    end;
    Obs.Ctx.count obs "gp.iters";
    (* Heartbeat after the hooks and guards so the record carries this
       iteration's timing/guard updates (cadence decided inside). *)
    (match heartbeat with Some hb -> Obs.Heartbeat.tick hb ~iter:!iter ~overflow | None -> ());
    if done_now then stop := true;
    incr iter)
  done;
  unpack d movable (Nesterov.iterate !opt);
  Design.clamp_movable d;
  let final_hpwl =
    let h = Design.total_hpwl d in
    if Util.Guard.is_finite h then h
    else begin
      (* Last line of defence: a NaN slipped past every sampled probe
         between checkpoints. Hand back the last verified placement
         rather than a poisoned one. *)
      Obs.Ctx.count obs "guard.nan_detected";
      Obs.Ctx.count obs "guard.rollbacks";
      Design.restore d (fst !last_good);
      Design.clamp_movable d;
      let h' = Design.total_hpwl d in
      if not (Util.Guard.is_finite h') then
        Util.Errors.diverged ~stage:"globalplace" ~recoveries:!consecutive_recoveries
          "final iterate non-finite and no finite checkpoint to roll back to";
      Obs.Log.warn "[gp %s] final iterate non-finite: restored last good checkpoint" d.name;
      h'
    end
  in
  Obs.Ctx.gauge obs "gp.final_hpwl" final_hpwl;
  Obs.Ctx.gauge obs "gp.final_overflow" !last_overflow;
  Obs.Ctx.gauge obs "gp.iterations" (float_of_int !iter);
  (* Final heartbeat regardless of cadence: subscribers always see the
     converged state. *)
  (match heartbeat with
  | Some hb ->
      Obs.Heartbeat.note_hpwl hb final_hpwl;
      Obs.Heartbeat.force hb ~iter:!iter ~overflow:!last_overflow
  | None -> ());
  { iters = !iter; final_hpwl; final_overflow = !last_overflow }
