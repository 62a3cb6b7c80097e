(** Hyper-parameter selection by N-fold cross-validation (paper
    Sec. IV-D).

    The hyper-parameter [t] is [sigma_0^2] for the zero-mean prior and
    [eta = sigma_0^2 / lambda^2] for the nonzero-mean prior; it controls
    the weight of the prior against the data. Candidates are swept on a
    log grid scaled to the data, and the candidate minimizing the mean
    held-out relative error wins.

    The sweep shares work aggressively: per fold, the matrix
    [B = G W^-1 G^T] and the vectors entering the Woodbury solve are
    computed once, so each additional candidate costs only one K x K
    Cholesky plus two matrix-vector products. This is what makes
    cross-validating BMF cheap even at the largest sample counts.

    The fold sweep runs on the shared [Parallel.Pool]: each fold's
    submatrix build and Woodbury sweep is one pool task with a private
    error vector, and the vectors are merged in fold order — the
    selected hyper-parameter is bit-identical at any [-j].

    Held-out errors are relative (normalized by the validation group's
    |f_v|) unless that norm sits below 1e-12, where the denominator
    degenerates; such folds fall back to the absolute error instead of
    inflating every candidate's score to inf/NaN. *)

type grid = float list

val auto_grid :
  ?decades_below:int ->
  ?decades_above:int ->
  ?per_decade:int ->
  g:Linalg.Mat.t ->
  f:Linalg.Vec.t ->
  prior:Prior.t ->
  unit ->
  grid
(** Log-spaced candidates centered on the empirical variance of the
    prior-mean residual [f - G mu] (its mean is removed so a large
    response offset cannot swamp the scale). Defaults: 5 decades below,
    3 above, 1 point per decade. *)

val cv_errors :
  ?rng:Stats.Rng.t ->
  ?solver:Map_solver.solver ->
  folds:int ->
  g:Linalg.Mat.t ->
  f:Linalg.Vec.t ->
  prior:Prior.t ->
  candidates:grid ->
  unit ->
  (float * float) list
(** Mean held-out relative error (eq. 59) for every candidate, in input
    order. [solver] defaults to [Fast_woodbury] (the shared-work sweep);
    [Direct_cholesky] re-solves the full M x M system per fold and
    candidate — the "conventional solver" cost the paper benchmarks
    against in Fig. 5.
    @raise Invalid_argument when [folds < 2], [g] has fewer than 2 rows
    or [candidates = []]. *)

val select :
  ?rng:Stats.Rng.t ->
  ?solver:Map_solver.solver ->
  ?folds:int ->
  ?candidates:grid ->
  g:Linalg.Mat.t ->
  f:Linalg.Vec.t ->
  prior:Prior.t ->
  unit ->
  float * float
(** Best (hyper, cv-error) pair over the candidates with finite CV
    error. [folds] defaults to 4; [candidates] defaults to {!auto_grid}.
    @raise Invalid_argument when every candidate scores non-finite. *)

(** {2 Marginal-likelihood (evidence) selection}

    An empirical-Bayes alternative to cross-validation, beyond the
    paper: because prior and likelihood are Gaussian, the marginal
    likelihood of the data is available in closed form,

    [f - G mu ~ N(0, noise * I + scale * G W^-1 G^T)]

    with [noise = sigma_0^2] and [scale = lambda^2] (fixed to 1 for the
    zero-mean prior, whose variances eq. 16 fully determines). Maximizing
    it selects the hyper-parameters without sacrificing any training
    data, at one K x K Cholesky per candidate — the same cost profile as
    the shared-work CV sweep. *)

val log_evidence :
  ?scale:float ->
  g:Linalg.Mat.t ->
  f:Linalg.Vec.t ->
  prior:Prior.t ->
  noise:float ->
  unit ->
  float
(** Log marginal likelihood of the observations under the prior, with
    observation-noise variance [noise] and prior-variance multiplier
    [scale] (default 1).
    @raise Invalid_argument unless [noise > 0] and [scale > 0]. *)

val select_evidence :
  ?noise_candidates:grid ->
  ?scale_candidates:grid ->
  g:Linalg.Mat.t ->
  f:Linalg.Vec.t ->
  prior:Prior.t ->
  unit ->
  float * float
(** Maximizes {!log_evidence} over a (noise, scale) grid — scale is
    swept only for the nonzero-mean prior — and returns
    [(hyper, log_evidence)] where [hyper] is directly usable with
    [Map_solver.solve]: [sigma_0^2] for zero-mean,
    [eta = sigma_0^2 / lambda^2] for nonzero-mean. Grids default to
    {!auto_grid}-style data-scaled log ranges. *)
