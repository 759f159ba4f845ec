(** Configuration of the Efficient-TDP flow and its ablation variants
    (paper Sec. IV: beta = 2.5e-5, m = 15, w0 = 10, w1 = 0.2, timing
    optimisation from iteration 500).

    Units note: the paper's beta is calibrated to DBU-scale coordinates;
    our coordinates are in row heights (sites), so the default betas below
    are chosen to give the pin-attraction gradient the same relative
    magnitude against the wirelength gradient as in the paper. *)

type loss_kind =
  | Quadratic (* paper Eq. 8: squared Euclidean distance *)
  | Linear (* ablation: Euclidean distance *)
  | Hpwl_like (* ablation: |dx| + |dy| *)

type extraction =
  | Endpoint_based of { k : int } (* report_timing_endpoint(n, k) — ours *)
  | Global_topn of { mult : int } (* report_timing(n * mult) — OpenTimer style *)

type t = {
  loss : loss_kind;
  extraction : extraction;
  beta : float; (* pin-attraction penalty multiplier *)
  m : int; (* placement iterations between timing rounds *)
  w0 : float; (* initial pin-pair weight, Eq. 9 *)
  w1 : float; (* per-path weight increment scale, Eq. 9 *)
  timing_start : int; (* iteration at which timing optimisation begins *)
  extra_iters : int; (* iterations granted beyond the vanilla stop *)
  stale_decay : float; (* per-round weight decay for pairs absent from the
                          current critical set (1.0 = pure Eq. 9) *)
}

let default =
  {
    loss = Quadratic;
    extraction = Endpoint_based { k = 1 };
    (* beta is the pin-attraction force as a fraction of the placement
       (wirelength + density) gradient norm — scale-free across designs.
       The loss kind changes the force *shape* over the pair set, not its
       overall magnitude, so one value serves all three. *)
    beta = 0.75;
    m = 10;
    w0 = 10.0;
    w1 = 2.0; (* the paper's 0.2 rescaled: our slack ratios are spread
                 across fewer, shorter paths, so increments are larger *)
    timing_start = 300;
    extra_iters = 450;
    stale_decay = 0.90;
  }

(** Range-check a configuration; returns the first problem found. *)
let validate t =
  let fin v = Float.is_finite v in
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  if not (fin t.beta) || t.beta < 0.0 then err "beta %g must be finite and >= 0" t.beta
  else if t.m <= 0 then err "m (round cadence) %d must be positive" t.m
  else if not (fin t.w0) || t.w0 < 0.0 then err "w0 %g must be finite and >= 0" t.w0
  else if not (fin t.w1) || t.w1 < 0.0 then err "w1 %g must be finite and >= 0" t.w1
  else if t.timing_start < 0 then err "timing_start %d must be >= 0" t.timing_start
  else if t.extra_iters < 0 then err "extra_iters %d must be >= 0" t.extra_iters
  else if not (fin t.stale_decay) || t.stale_decay <= 0.0 || t.stale_decay > 1.0 then
    err "stale_decay %g must be in (0, 1]" t.stale_decay
  else
    match t.extraction with
    | Endpoint_based { k } when k <= 0 -> err "paths-per-endpoint k %d must be positive" k
    | Global_topn { mult } when mult <= 0 -> err "report_timing multiplier %d must be positive" mult
    | Endpoint_based _ | Global_topn _ -> Ok ()

(** [validate], raising [Util.Errors.Error (Config_error _)]. *)
let validate_exn t =
  match validate t with Ok () -> () | Error detail -> Util.Errors.config_error ~what:"tdp-config" detail
