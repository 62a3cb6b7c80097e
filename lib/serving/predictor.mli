(** Batch prediction against a loaded model artifact.

    The serving hot path: the basis is evaluated on the whole query
    batch ({!Polybasis.Basis.design_matrix_into}), the mean is one
    [gemv] against the stored coefficients, and predictive variance
    comes from the stored K x K posterior core at O(KM + K^2) per
    query — the M x M covariance of [Bmf.Posterior] is never formed.

    {!predict_into} and {!predict_with_std_into} are the only kernels.
    The allocating entry points allocate a {!Scratch} and their outputs,
    then run them, so every path returns the same bits. Each call
    advances [bmf_predictions_total] by its batch size and
    [bmf_predict_batches_total] by one. *)

type t

val of_artifact : Artifact.t -> t
(** Pre-computes the serving state (basis, inverse prior weights,
    Cholesky handle on the stored posterior core). *)

val basis : t -> Polybasis.Basis.t

val predict : t -> Linalg.Mat.t -> Linalg.Vec.t
(** Predicted means for every row of a query-point matrix
    (rows = points in the variation space, dimension {!basis} dim).
    @raise Invalid_argument when the batch width is not the model's
    variation-space dimension — validated once per batch, with the
    model name and the expected/actual dimensions in the message. *)

val predict_with_std : t -> Linalg.Mat.t -> Linalg.Vec.t * Linalg.Vec.t
(** Means and predictive standard deviations (includes the observation
    noise [sigma0_sq], matching [Bmf.Posterior.predict]). The
    per-query variances are sharded over the shared pool, one scratch
    per lane; the output is bit-identical at any lane count.
    @raise Invalid_argument on a batch-width mismatch, as {!predict}. *)

val predict_point_with_std : t -> Linalg.Vec.t -> float * float
(** Single-point convenience: a one-row {!predict_with_std}. *)

(** Preallocated serving arena for the allocation-free predict path: a
    capacity x M design arena, the basis evaluation scratch, and the
    variance work vectors for one block of four queries. A scratch
    belongs to one predictor value (physical identity) — build a new one
    after a model swap. *)
module Scratch : sig
  type pred := t

  type t

  val create : ?capacity:int -> pred -> t
  (** [create ?capacity pred] sizes the arena for batches of up to
      [capacity] rows (default 64; grows geometrically if exceeded). *)

  val for_predictor : t -> pred -> bool
  (** Whether this scratch was built for exactly this predictor. *)
end

val predict_into : t -> scratch:Scratch.t -> Linalg.Mat.t -> means:Linalg.Vec.t -> unit
(** The mean kernel: writes the first [rows xs] entries of [means]
    (which may be longer). In steady state (batch within scratch
    capacity) performs zero minor-heap float-array allocation.
    @raise Invalid_argument on batch-width mismatch, a foreign scratch,
    or a too-short output buffer. *)

val predict_with_std_into :
  t ->
  scratch:Scratch.t ->
  Linalg.Mat.t ->
  means:Linalg.Vec.t ->
  stds:Linalg.Vec.t ->
  unit
(** The mean-and-variance kernel; same buffer contract as
    {!predict_into}. Variances run sequentially in the calling domain
    (the serving daemon shards queries across domains above this), four
    rows at a time so that one sweep over the posterior core serves four
    queries; each std has the bits of a one-row call. *)
