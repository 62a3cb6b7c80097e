(** Sparse matrices in compressed-sparse-row (CSR) form.

    Built from coordinate (COO) triplets with duplicate summation — the
    natural form produced by stamping circuit elements into an MNA matrix
    (see [Circuit.Mna]). *)

type t

type triplet = { row : int; col : int; value : float }

val of_triplets : rows:int -> cols:int -> triplet list -> t
(** Builds a CSR matrix; duplicate (row, col) entries are summed (the MNA
    "stamping" convention) and explicit zeros produced by cancellation are
    kept. Out-of-range indices raise [Invalid_argument]. *)

val dims : t -> int * int

val nnz : t -> int
(** Number of stored entries. *)

val get : t -> int -> int -> float
(** Entry lookup; zero for entries not stored. *)

val mv : t -> Vec.t -> Vec.t
(** Sparse matrix-vector product. *)

val mv_t : t -> Vec.t -> Vec.t
(** Transposed product [a^T x]. *)

val to_dense : t -> Mat.t

val of_dense : ?tol:float -> Mat.t -> t
(** Drops entries with magnitude [<= tol] (default [0.]). *)

val scale : float -> t -> t

val iter : (int -> int -> float -> unit) -> t -> unit
(** Iterates over stored entries in row order. *)

val is_symmetric : ?tol:float -> t -> bool
