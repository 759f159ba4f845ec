(** Spectral Poisson solver on a regular grid with Neumann boundaries —
    the ePlace electrostatics substrate.

    [solve] inverts the *discrete* 5-point Laplacian exactly (cosine-mode
    eigenvalues 2-2cos w), dropping the DC mode, i.e. it solves
    laplacian(psi) = -rho for zero-mean charge.

    Transforms run on a per-solver real-even [Plan] with the mode scale
    fused into the column pass; the [_into] entry points write to
    caller-owned buffers and perform zero minor-heap allocation in
    steady state (single domain, no stats hook). The solver keeps the
    [Util.Parallel.t] it was created with. *)

type t

(** Grid dimensions must be powers of two; raises
    [Util.Errors.Error (Config_error _)] (what = ["poisson.grid"])
    otherwise. *)
val create : par:Util.Parallel.t -> rows:int -> cols:int -> t

(** Potential from the (row-major) charge grid into a caller-owned
    buffer ([rho == psi] allowed). A sampled in-kernel finiteness probe
    on the input density field and output potential counts
    [guard.numerics.*_nonfinite] on [obs] (observation-only; the
    caller's guard still owns recovery). *)
val solve_into : ?obs:Obs.Ctx.t -> t -> rho:float array -> psi:float array -> unit

(** Allocating wrapper over {!solve_into}. *)
val solve : ?obs:Obs.Ctx.t -> t -> float array -> float array

(** Field (ex, ey) = -grad psi by central differences, in grid units,
    into caller-owned buffers. *)
val field_into : t -> psi:float array -> ex:float array -> ey:float array -> unit

(** Allocating wrapper over {!field_into}. *)
val field : t -> float array -> float array * float array

(** System energy 0.5 * sum(rho * psi) — the ePlace density penalty.
    A sequential left fold over the grid. *)
val energy : float array -> float array -> float
