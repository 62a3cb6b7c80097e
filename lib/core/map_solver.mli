(** Maximum-a-posteriori estimation of the late-stage coefficients
    (paper Sec. III-B and IV-C).

    Both prior families reduce to one quadratic problem. With prior means
    [mu], prior weights [w] (inverse variance-scales from [Prior]) and
    hyper-parameter [t] ([sigma_0^2] for the zero-mean prior, [eta] for
    the nonzero-mean prior), the MAP solution solves

    [(G^T G + t * diag w) (alpha - mu) = G^T (f - G mu)]

    which is eq. 30 / eq. 35 after multiplying through by [sigma_0^2]
    (resp. substituting [eta = sigma_0^2 / lambda^2]).

    Two solution paths are provided:
    - [Direct_cholesky]: forms the M x M system (eq. 28-35) — the
      "conventional solver" of Fig. 5;
    - [Fast_woodbury]: the paper's low-rank fast solver (eq. 53-58),
      exact, with a K x K core solve.

    Both return identical answers to roundoff; tests assert this.

    The fast path's dual form [alpha = mu + W^-1 G^T v] is written once,
    in {!Linalg.Woodbury}; the artifact build (through {!solve_fast}),
    the CV fold sweep, the incremental updater and ridge regression all
    solve through it. *)

type solver = Direct_cholesky | Fast_woodbury

val solver_name : solver -> string

val solve :
  ?solver:solver ->
  g:Linalg.Mat.t ->
  f:Linalg.Vec.t ->
  prior:Prior.t ->
  hyper:float ->
  unit ->
  Linalg.Vec.t
(** MAP coefficients (length [cols g]). Default solver is
    [Fast_woodbury] when there are fewer samples than basis functions,
    [Direct_cholesky] otherwise.
    @raise Invalid_argument on dimension mismatches or [hyper <= 0]. *)

val solve_raw :
  solver:solver ->
  g:Linalg.Mat.t ->
  f:Linalg.Vec.t ->
  weights:Linalg.Vec.t ->
  means:Linalg.Vec.t ->
  hyper:float ->
  Linalg.Vec.t
(** Same computation on raw (weights, means) vectors, for callers that
    bypass [Prior] (e.g. hyper-parameter sweeps that share work). *)

val prior_residual :
  g:Linalg.Mat.t -> f:Linalg.Vec.t -> means:Linalg.Vec.t -> Linalg.Vec.t
(** [f - G mu]; [f] itself when [mu = 0]. *)

val noise_estimate :
  g:Linalg.Mat.t -> f:Linalg.Vec.t -> Linalg.Vec.t -> float
(** [noise_estimate ~g ~f alpha] is the noise variance [sigma_0^2]
    estimated from the training residual,
    [max 1e-300 (|f - G alpha|^2 / max 1 K)]: what the artifact, the
    incremental updater and {!Posterior} store as the predictive noise
    floor. *)

val solve_fast :
  g:Linalg.Mat.t ->
  f:Linalg.Vec.t ->
  weights:Linalg.Vec.t ->
  means:Linalg.Vec.t ->
  hyper:float ->
  Linalg.Vec.t * Linalg.Cholesky.t
(** The [Fast_woodbury] path of {!solve_raw} without its checks and
    span: the MAP coefficients and the Cholesky factor of
    [hyper I + G W^-1 G^T], which [Serving.Artifact] stores as the
    posterior core. Sets the conditioning gauges when a sink is live. *)
