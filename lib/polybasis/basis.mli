(** Orthonormal polynomial bases over the variation space (paper eq. 2-5).

    A basis is an ordered set of multivariate orthonormal Hermite terms
    [{g_m}]; evaluating it on a sample matrix yields the design matrix [G]
    of eq. 9. By construction E[g_i(X) g_j(X)] = delta_ij for
    X ~ N(0, I), which tests verify by Monte Carlo.

    There is one evaluator, {!design_matrix_into}; {!design_matrix},
    {!eval_row}, {!predict} and {!predict_many} allocate and call it.
    It runs sequentially in the calling domain. *)

type t

val of_terms : dim:int -> Multi_index.t list -> t
(** A basis over [dim] variables with the given terms in the given order.
    @raise Invalid_argument if a term references a variable [>= dim] or
    if two terms are equal. *)

val linear : int -> t
(** The paper's main basis: [1; x_1; ...; x_r] ([M = r + 1] terms, the
    constant first). *)

val quadratic_diagonal : int -> t
(** [1; x_i ...; (x_i^2 - 1)/sqrt 2 ...] — adds pure quadratics
    ([M = 2r + 1]). *)

val total_degree : r:int -> d:int -> t
(** Full total-degree basis (small [r] only); see
    {!Multi_index.all_up_to_degree}. *)

val dim : t -> int
(** Number of variables [r]. *)

val size : t -> int
(** Number of basis functions [M]. *)

val term : t -> int -> Multi_index.t

val terms : t -> Multi_index.t array

val index_of_term : t -> Multi_index.t -> int option
(** Position of a term in this basis, if present. *)

val eval_row : t -> Linalg.Vec.t -> Linalg.Vec.t
(** All [M] basis functions at one point — one row of [G]. *)

val design_matrix : t -> Linalg.Mat.t -> Linalg.Mat.t
(** [design_matrix b xs] maps a [k] x [r] sample matrix to the [k] x [M]
    matrix [G] with [G_km = g_m(x^(k))] (eq. 9). *)

(** Reusable evaluation state for {!design_matrix_into}: per-variable
    degree requirements plus one Hermite table per variable needing
    degree [>= 2]. Build once per (basis, evaluator) pair and reuse
    across calls; a scratch is valid only for the exact basis value it
    was created from. *)
module Scratch : sig
  type basis := t

  type t

  val create : basis -> t
end

val design_matrix_into : t -> scratch:Scratch.t -> Linalg.Mat.t -> dst:Linalg.Mat.t -> unit
(** [design_matrix_into b ~scratch xs ~dst] evaluates the basis on the
    [k] x [r] sample matrix [xs] into the preallocated [k] x [M]
    destination, with zero float-array allocation in steady state.
    Each entry is the left-to-right product of its factors' normalized
    Hermite values (the recurrence of {!Hermite.normalized_upto_into}).
    @raise Invalid_argument on shape mismatch or if [scratch] was built
    for a different basis value. *)

val predict : t -> coeffs:Linalg.Vec.t -> Linalg.Vec.t -> float
(** [predict b ~coeffs x = sum_m coeffs.(m) * g_m(x)] (eq. 2). *)

val predict_many : t -> coeffs:Linalg.Vec.t -> Linalg.Mat.t -> Linalg.Vec.t
(** Vectorized {!predict} over sample rows. *)

val extend : t -> Multi_index.t list -> t
(** Appends new (distinct) terms, keeping existing positions stable; the
    dimension grows to cover any new variables. Used to build late-stage
    bases from early-stage ones (paper Sec. IV-A/IV-B). *)
