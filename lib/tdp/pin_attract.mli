(** Pin-to-pin attraction — the paper's fine-grained timing objective
    (Sec. III-A/C/D): a maintained set P of critical (driver, sink) pin
    pairs with Eq. 9 weights, and the distance loss Q (Eq. 8) with its
    gradient. Pairs shared by many violating paths accumulate weight —
    the path-sharing effect net weighting cannot see. *)

type t

val create : Netlist.Design.t -> loss:Config.loss_kind -> t

val num_pairs : t -> int

(** Cumulative count of Eq. 9 pair-weight writes (fresh insertions plus
    increments) across all rounds — an extraction-volume counter. *)
val num_updates : t -> int

(** Fold over the current pair set with its Eq. 9 weights (order
    unspecified); inspection hook for diagnostics and the oracle tests. *)
val fold_pairs :
  t -> init:'a -> f:('a -> pin_i:int -> pin_j:int -> weight:float -> 'a) -> 'a

(** Fold one extraction round into P: Eq. 9 along every path (w0 on first
    insertion, += w1 * slack/WNS per further path), then relax untouched
    pairs by [stale_decay] (held when [paths] is empty — a met design must
    not unravel). Only net arcs contribute. [wns] must be the current WNS. *)
val update_from_paths :
  t ->
  Sta.Graph.t ->
  w0:float ->
  w1:float ->
  wns:float ->
  stale_decay:float ->
  Sta.Paths.path list ->
  unit

(** Momentum-fold one pair's weight toward [w_hat] (pin-level ablation). *)
val update_pair_momentum :
  t -> pin_i:int -> pin_j:int -> w_hat:float -> momentum:float -> unit

(** Loss value (Eq. 10, before beta) under the current placement. *)
val loss_value : t -> float

(** Add d(PP)/d(cell centre) into [gx]/[gy]; forces come in
    action-reaction pairs, so they sum to zero. *)
val add_grad : t -> gx:float array -> gy:float array -> unit
