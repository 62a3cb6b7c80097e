(** The dual form of the Sherman-Morrison-Woodbury solve: the paper's
    fast solver (Sec. IV-C, eq. 53-58).

    For prior means [mu], prior weights [w] and a shift [t], the
    solution of the M x M system
    [(G^T G + t W) (alpha - mu) = G^T r] is

    [alpha = mu + W^-1 G^T (t I + G W^-1 G^T)^-1 r]

    so only the K x K core [C = t I + B], [B = G W^-1 G^T], is ever
    factored: exact, at O(K^2 M + K^3) instead of O(M^3). The MAP fit,
    the CV sweep over [t], the incremental updater and ridge regression
    ([W = I], [mu = 0]) all solve through this one module. *)

val dual_coeffs :
  g:Mat.t -> w_inv:Vec.t -> means:Vec.t -> Vec.t -> Vec.t
(** [dual_coeffs ~g ~w_inv ~means v] is [mu + W^-1 G^T v], mapping the
    solution [v] of the K x K core system back to coefficient space. *)

val solve :
  g:Mat.t ->
  w_inv:Vec.t ->
  means:Vec.t ->
  core:Mat.t ->
  r:Vec.t ->
  hyper:float ->
  Vec.t * Cholesky.t
(** [solve ~g ~w_inv ~means ~core ~r ~hyper] factors
    [C = hyper I + core] (with [core = G W^-1 G^T]) and returns
    [dual_coeffs (C^-1 r)] with the factor of [C]. Callers sweeping
    [hyper] share one [core]. Unchecked.
    @raise Cholesky.Not_positive_definite if [C] is not. *)
