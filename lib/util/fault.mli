(** Fault injection for robustness tests: a per-run plan of
    [site=kind@start[+count]] windows; each run arms it into fresh
    injectors, applied one layer above the (pure) WA and Elmore kernels. *)

type kind = Nan | Pos_inf | Neg_inf | Huge

type spec = { kind : kind; start : int; count : int (* < 0 = unbounded *) }

(** [Wl_grad]: one call per movable-cell component of the WA gradient in
    [Gp.Globalplace.run]. [Elmore]: one call per node delay in [Sta.Delay]. *)
type site = Wl_grad | Elmore

(** At most one spec per site; [[]] is the clean run. *)
type plan = (site * spec) list

val kind_to_string : kind -> string

val site_name : site -> string

val spec_to_string : spec -> string

type injector

(** A fresh injector: its window counts from its own first call. *)
val injector : spec -> injector

(** Pass [v] through, or corrupt it inside the window (atomic call
    counter, safe under parallel kernels). *)
val apply : injector -> float -> float

(** Calls corrupted so far. *)
val corrupted : injector -> int

(** Parse one [kind@start[+count]] spec. *)
val parse_spec : string -> (spec, string) result

(** Parse a comma-separated [site=spec] list; an unknown or repeated
    site is an error. *)
val parse : string -> (plan, string) result
