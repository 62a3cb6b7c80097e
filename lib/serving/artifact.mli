(** Versioned, checksummed on-disk format for a fitted BMF model.

    An artifact captures everything needed to serve a late-stage model
    without refitting: the basis (multi-index terms), the MAP
    coefficients, the prior and its selected hyper-parameter, and the
    K x K Cholesky factor of the Woodbury core
    [C = hyper I + G W^-1 G^T] together with the training design — the
    posterior state that powers both predictive variance
    ({!Predictor}) and exact rank-1 incremental updates
    ({!Incremental}).

    Two codecs share one payload schema: a canonical JSON text form
    (debuggable, diffable) and a compact little-endian binary form
    (~2.5x smaller) written by {!Codec} in its
    [magic "BMFART01" | u64 fnv64 | payload] envelope. Both embed an
    FNV-1a 64-bit checksum of the payload; [load] verifies it and
    rejects corrupt files. *)

val format_version : int

type meta = { circuit : string; metric : string; scale : string; seed : int }
(** Identity of a fit — the registry key in {!Store}. *)

type t = {
  meta : meta;
  rev : int;  (** Update revision: 0 = initial fit, +1 per [repro update]. *)
  hyper : float;  (** Selected hyper-parameter (sigma_0^2 or eta). *)
  cv_error : float;  (** CV error at selection time ([nan] if unknown). *)
  sigma0_sq : float;  (** Residual noise variance estimate. *)
  basis_dim : int;
  terms : Polybasis.Multi_index.t array;
  prior : Bmf.Prior.t;
  coeffs : Linalg.Vec.t;  (** MAP coefficients, length M. *)
  g : Linalg.Mat.t;  (** Training design matrix, K x M. *)
  f : Linalg.Vec.t;  (** Training responses, length K. *)
  chol : Linalg.Mat.t;
      (** Lower Cholesky factor of [hyper I + G W^-1 G^T], K x K. *)
}

type format = Json | Binary

val of_fit :
  meta:meta ->
  ?rev:int ->
  basis:Polybasis.Basis.t ->
  prior:Bmf.Prior.t ->
  hyper:float ->
  ?cv_error:float ->
  g:Linalg.Mat.t ->
  f:Linalg.Vec.t ->
  unit ->
  t
(** Captures a fit from its raw ingredients. The MAP solve is
    [Bmf.Map_solver.solve_fast], so [coeffs] is bit-identical to
    [Map_solver.solve ~solver:Fast_woodbury] and [chol] is its factor.
    @raise Invalid_argument on dimension mismatches or [hyper <= 0]. *)

val basis : t -> Polybasis.Basis.t
(** Reconstructs the basis from the stored terms. *)

val num_samples : t -> int

val num_terms : t -> int

val method_name : t -> string
(** ["BMF-ZM"] or ["BMF-NZM"], from the stored prior kind. *)

val to_string : format -> t -> string

val of_string : string -> (t, string) result
(** Sniffs the format (binary magic, else JSON), verifies the checksum
    and all structural invariants. *)

val fingerprint : Linalg.Vec.t -> string
(** Checksum over the exact IEEE bits of a float vector — used to
    assert bit-identical predictions across save/load and processes. *)

val checksum_hex : string -> string
(** {!Codec.fnv64} of the whole string, as 16 lowercase hex digits: the
    JSON codec's checksum and the {!Store} filename digest. *)

val write_meta : Codec.writer -> meta -> unit
(** [circuit | metric | scale | seed]: the layout of the key in the
    artifact, a journal entry, a [.bmfe] member and a wire body. *)

val read_meta : Codec.reader -> meta
(** Inverse of {!write_meta}. @raise Codec.Short on malformed input. *)
