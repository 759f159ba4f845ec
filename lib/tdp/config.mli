(** Configuration of the Efficient-TDP flow and its ablation variants
    (paper Sec. IV; deviations documented in DESIGN.md section 6b). *)

type loss_kind =
  | Quadratic (* paper Eq. 8: squared Euclidean distance *)
  | Linear (* ablation: Euclidean distance *)
  | Hpwl_like (* ablation: |dx| + |dy| *)

type extraction =
  | Endpoint_based of { k : int } (* report_timing_endpoint(n, k) — ours *)
  | Global_topn of { mult : int } (* report_timing(n * mult) *)

type t = {
  loss : loss_kind;
  extraction : extraction;
  beta : float; (* pin-attraction force as a fraction of the wirelength
                   gradient norm (scale-free version of the paper's beta) *)
  m : int; (* placement iterations between timing rounds *)
  w0 : float; (* initial pin-pair weight, Eq. 9 *)
  w1 : float; (* per-path weight increment scale, Eq. 9 *)
  timing_start : int; (* iteration at which timing optimisation begins *)
  extra_iters : int; (* timing-phase iteration budget *)
  stale_decay : float; (* per-round decay for pairs off the critical set
                          (1.0 = pure Eq. 9) *)
}

val default : t

(** Range-check a configuration; [Error] carries the first problem. *)
val validate : t -> (unit, string) result

(** [validate], raising [Util.Errors.Error (Config_error _)]. *)
val validate_exn : t -> unit
