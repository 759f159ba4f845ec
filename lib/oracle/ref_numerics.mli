(** Direct-summation references for the spectral kernels: O(N^2) DCT
    pairs, the discrete Neumann Laplacian applied point-wise, a direct
    Poisson solve, and sequential field/energy — the oracles for
    [Numerics.Plan], [Numerics.Poisson] and the transformed fast paths
    built on them (the Zhang-Sapatnekar methodology: a fast transform is
    only trusted against direct summation). *)

(** Direct O(N^2) DCT-II: [X_k = sum_n x_n cos(pi k (2n+1) / 2N)]. Any
    length (no power-of-two restriction). *)
val dct2_direct : float array -> float array

(** Direct inverse of {!dct2_direct}:
    [x_n = (X_0 + 2 sum_(k>=1) X_k cos(pi k (2n+1) / 2N)) / N]. *)
val idct2_direct : float array -> float array

(** Separable 2D forms (rows then columns / columns then rows). *)
val dct2_2d_direct : float array -> rows:int -> cols:int -> float array

val idct2_2d_direct : float array -> rows:int -> cols:int -> float array

(** The discrete 5-point Laplacian with Neumann (mirror) boundaries that
    [Numerics.Poisson.solve] inverts: out-of-range neighbours contribute
    nothing. *)
val laplacian_neumann : float array -> rows:int -> cols:int -> float array

(** Direct Poisson solve: direct 2D DCT, per-mode scaling by
    1 / ((2-2cos wu) + (2-2cos wv)) with the DC mode dropped, direct
    inverse. *)
val poisson_solve_direct : float array -> rows:int -> cols:int -> float array

(** Sequential central-difference field (one-sided at the boundary),
    matching [Numerics.Poisson.field]'s convention. *)
val field_direct : float array -> rows:int -> cols:int -> float array * float array

(** Sequential [0.5 * sum rho*psi]. *)
val energy_direct : float array -> float array -> float

(** Residual gate: a solution [psi] of the spectral solver must satisfy
    laplacian(psi) = -(rho - mean rho) at every grid point, to an
    absolute tolerance scaled by the charge magnitude. *)
val check_poisson_residual :
  ?atol:float -> rho:float array -> psi:float array -> rows:int -> cols:int -> unit -> (unit, string) result

(** {2 Gates for the packed real-even plan engine}

    Each gate builds a fresh [Numerics.Plan] (or plan-backed
    [Numerics.Poisson]), runs the production packed path on the given
    row-major grid, and compares against direct summation. The absolute
    floor (default 1e-7) absorbs the O(N*eps) rounding both the packed
    FFT and the naive sum accumulate on cancelling coefficients. *)

val check_dct2_2d :
  ?rtol:float -> ?atol:float -> float array -> rows:int -> cols:int -> (unit, string) result

val check_idct2_2d :
  ?rtol:float -> ?atol:float -> float array -> rows:int -> cols:int -> (unit, string) result

(** Plan-backed [Numerics.Poisson.solve] vs {!poisson_solve_direct},
    plus the residual gate on the same solution. *)
val check_poisson_solve :
  ?rtol:float -> ?atol:float -> float array -> rows:int -> cols:int -> (unit, string) result
