(** Small dense linear algebra over floats.

    Enough machinery for the multitype branching-process computations of
    Section VI (expected total progeny solves [(I - M) m = 1]) and the
    fluid-limit integrator: Gaussian elimination with partial pivoting,
    power iteration for the Perron eigenvalue, and basic matrix algebra.
    Matrices are [float array array], row-major, rectangular. *)

type mat = float array array
type vec = float array

val identity : int -> mat
val make : rows:int -> cols:int -> float -> mat
val dims : mat -> int * int
val transpose : mat -> mat
val mat_mul : mat -> mat -> mat
val mat_vec : mat -> vec -> vec
val mat_sub : mat -> mat -> mat

val solve : mat -> vec -> vec
(** [solve a b] solves [a x = b] by Gaussian elimination with partial
    pivoting. @raise Failure on a (numerically) singular matrix. *)

val inverse : mat -> mat
(** @raise Failure on a singular matrix. *)

val spectral_radius : ?iterations:int -> ?tol:float -> mat -> float
(** Largest-magnitude eigenvalue modulus of a nonnegative matrix by power
    iteration on a strictly positive start vector.  For the mean matrix of
    a multitype branching process this is the criticality parameter: the
    process is subcritical iff the result is [< 1]. *)

val vec_norm_inf : vec -> float
val vec_sub : vec -> vec -> vec
val vec_add : vec -> vec -> vec
val vec_scale : float -> vec -> vec
