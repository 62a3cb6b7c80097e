(** Cholesky factorization of symmetric positive-definite matrices.

    This is the "conventional solver" the paper's fast solver is benchmarked
    against (Sec. IV-C, refs to Golub & Van Loan), and the K x K core
    factor behind the fast solver itself ({!Woodbury}).

    {!forward} and {!backward} are the repository's only substitution
    loops over a Cholesky factor: {!factorize} (each Crout row),
    {!solve_into}, the incremental updater's bordering and OMP's
    support-Gram factor all run through them, so a faster substitution
    lands in one body. *)

exception Not_positive_definite of int
(** Raised with the offending pivot index when a non-positive pivot is
    encountered. *)

type t
(** A computed factorization [a = l * l^T]. *)

val factorize : Mat.t -> t
(** Factorizes a symmetric positive-definite matrix. Only the lower triangle
    (including the diagonal) of the input is read. When an observability
    sink is live ({!Obs.live}) each call records latency, a factorization
    counter and the minimum pivot; the numerical path is unchanged.
    @raise Not_positive_definite if a pivot is [<= 0] or not finite. *)

val pivot_extrema : t -> float * float
(** [(min, max)] of the factor's diagonal pivots. *)

val cond_estimate : t -> float
(** Cheap 2-norm condition estimate of [a = l l^T] from the pivot spread,
    [(max pivot / min pivot)^2] — a lower bound on [cond_2 a]. *)

val factor : t -> Mat.t
(** The lower-triangular factor [l]. *)

val of_factor : Mat.t -> t
(** [of_factor l] wraps an existing lower-triangular factor as the
    factorization of [l * l^T] (the strict upper triangle is ignored).
    Used to resume solves from a factor restored from disk.
    @raise Invalid_argument if [l] is not square or a diagonal entry is
    not strictly positive and finite. *)

val forward : Mat.t -> n:int -> Vec.t -> dst:Vec.t -> unit
(** [forward l ~n b ~dst] solves [L y = b] into [dst.(0 .. n-1)], where
    [L] is the leading [n] x [n] lower triangle of the row-major [l]
    (any row stride [cols l]; the strict upper part is not read). Each
    [y_i] is [b_i] minus [L_ik y_k] for [k = 0 .. i-1], left to right,
    divided by [L_ii]. [dst] may be [b]. Allocation-free.
    @raise Invalid_argument if [n] exceeds [l] or a vector is shorter
    than [n]. *)

val backward : Mat.t -> n:int -> Vec.t -> dst:Vec.t -> unit
(** [backward l ~n y ~dst] solves [L^T x = y] into [dst.(0 .. n-1)] on
    the same block as {!forward}: each [x_i], from [i = n-1] down, is
    [y_i] minus [L_ki x_k] for [k = i+1 .. n-1], in that order, divided
    by [L_ii]. [dst] may be [y]. Allocation-free. *)

val solve : t -> Vec.t -> Vec.t
(** [solve f b] solves [a * x = b] by forward and back substitution. *)

val solve_into : t -> Vec.t -> y:Vec.t -> dst:Vec.t -> unit
(** [solve_into f b ~y ~dst] is {!solve} into preallocated buffers:
    [y] receives the {!forward} intermediate and [dst] the {!backward}
    solution (both of length at least [n]; only the first [n] entries
    are written). Allocation-free and bit-identical to {!solve}. *)

val solve_mat : t -> Mat.t -> Mat.t
(** Column-wise {!solve}: solves [a * x = b] for a matrix right-hand side. *)

val inverse : t -> Mat.t
(** Explicit inverse of [a] (used only in tests and small problems). *)

val log_det : t -> float
(** Log-determinant of [a], i.e. [2 * sum (log l_ii)]. *)

val solve_system : Mat.t -> Vec.t -> Vec.t
(** One-shot convenience: factorize then solve. *)
