(** Dense row-major matrices over unboxed [Bigarray] float64 storage.

    The representation is a flat [(float, float64_elt, c_layout)
    Bigarray.Array1.t] of length [rows * cols]; entry (i, j) lives at
    index [i * cols + j]. Rows are therefore contiguous, and all hot
    kernels below iterate row-wise. The storage lives outside the OCaml
    heap: the GC never scans or moves it, and access in float context
    compiles to unboxed loads/stores.

    Every kernel keeps the summation order of the original
    [float array] implementation, so results are bit-identical to the
    seed kernels (golden-fingerprint-enforced). The [_into] variants
    write into preallocated destinations and allocate nothing. *)

type buf = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t
(** The flat row-major storage plane. *)

type t = private { rows : int; cols : int; data : buf }

val create : int -> int -> t
(** [create r c] is the [r] x [c] zero matrix. *)

val init : int -> int -> (int -> int -> float) -> t
(** [init r c f] has entry [f i j] at (i, j). *)

val make : int -> int -> float -> t

val identity : int -> t

val of_arrays : float array array -> t
(** Builds from an array of rows; all rows must have equal length. *)

val of_rows : Vec.t list -> t

val copy : t -> t
(** Fresh tight copy of the first [rows * cols] entries (so copying a
    {!view_rows} view of a larger arena yields an exact matrix). *)

val dims : t -> int * int

val rows : t -> int

val cols : t -> int

val data : t -> buf
(** The underlying storage, row-major. Borrowed, not copied. *)

val to_flat : t -> float array
(** Row-major copy of the storage as a plain [float array] (codecs). *)

val of_flat : rows:int -> cols:int -> float array -> t
(** Inverse of {!to_flat}; [Invalid_argument] on length mismatch. *)

val view_rows : t -> int -> t
(** [view_rows a k] is a borrowed view of the first [k] rows sharing
    [a]'s storage — writes through either alias are visible in both.
    This is how scratch arenas expose a capacity buffer to kernels
    sized for the live batch. *)

val fill : t -> float -> unit
(** Sets every entry (of the full underlying buffer) in place. *)

val get : t -> int -> int -> float

val set : t -> int -> int -> float -> unit

val row : t -> int -> Vec.t
(** Copy of row [i]. *)

val row_into : t -> int -> Vec.t -> unit
(** [row_into a i dst] copies row [i] into preallocated [dst]
    (length exactly [cols]); allocation-free. *)

val row_dot : t -> int -> Vec.t -> float
(** [row_dot a i x] is [Vec.dot (row a i) x] without the row copy;
    identical summation order, so bit-identical results. *)

val col : t -> int -> Vec.t
(** Copy of column [j]. *)

val col_nrm2 : t -> int -> float
(** [col_nrm2 a j] is [Vec.nrm2 (col a j)] with stride-aware access and
    no intermediate column copy (same two-pass scaled algorithm, so
    bit-identical). *)

val set_row : t -> int -> Vec.t -> unit

val set_col : t -> int -> Vec.t -> unit

val blit_rows : src:t -> dst:t -> dst_row:int -> unit
(** Copies all rows of [src] into [dst] starting at row [dst_row];
    both must have the same width. Allocation-free. *)

val transpose : t -> t

val add : t -> t -> t

val sub : t -> t -> t

val scale : float -> t -> t

val add_diag : t -> Vec.t -> t
(** [add_diag a d] adds [d] to the main diagonal of square [a] (fresh). *)

val diag : t -> Vec.t
(** Main diagonal of a square matrix. *)

val of_diag : Vec.t -> t
(** Square matrix with the given diagonal and zeros elsewhere. *)

val gemv : t -> Vec.t -> Vec.t
(** [gemv a x] is [a * x]. *)

val gemv_into : t -> Vec.t -> Vec.t -> unit
(** [gemv_into a x y] writes [a * x] into [y.(0 .. rows-1)] in place
    ([y] may be longer than [rows]); allocation-free, bit-identical to
    {!gemv}. *)

val gemv_t : t -> Vec.t -> Vec.t
(** [gemv_t a x] is [a^T * x], computed without materializing [a^T]. *)

val gemv_t_into : t -> Vec.t -> Vec.t -> unit
(** In-place twin of {!gemv_t}: writes into [y.(0 .. cols-1)]. *)

val gemm : t -> t -> t
(** [gemm a b] is [a * b], cache-blocked (ikj loop order). *)

val gemm_into : t -> t -> t -> unit
(** [gemm_into a b c] writes [a * b] into exactly-sized [c] in place;
    allocation-free, bit-identical to {!gemm}. *)

val gram : t -> t
(** [gram a] is [a^T * a] ([cols] x [cols]), symmetric, built from rank-1
    row updates so access stays contiguous. Unweighted fast path of
    {!weighted_gram}: bit-identical to an all-ones weighting without
    materializing the weight vector. *)

val weighted_gram : t -> Vec.t -> t
(** [weighted_gram a w] is [a^T * diag(w) * a]. *)

val outer_gram : t -> t
(** [outer_gram a] is [a * a^T] ([rows] x [rows]); unweighted fast path
    of {!weighted_outer_gram} (no all-ones vector per call). *)

val weighted_outer_gram : t -> Vec.t -> t
(** [weighted_outer_gram a w] is [a * diag(w) * a^T]; the kernel at the
    heart of the Sherman-Morrison-Woodbury fast solver (eq. 55/58). *)

val mul_cols : t -> Vec.t -> t
(** [mul_cols a w] scales column [j] of [a] by [w.(j)] (fresh matrix),
    i.e. [a * diag(w)]. *)

val sym_mirror_upper : t -> unit
(** Copies the strict upper triangle onto the lower one in place. *)

val frobenius : t -> float

val equal : t -> t -> bool
(** Exact bitwise equality of dimensions and every entry
    ([Float.equal], so NaNs compare equal to themselves). *)

val approx_equal : ?tol:float -> t -> t -> bool

val is_symmetric : ?tol:float -> t -> bool

val swap_rows : t -> int -> int -> unit

val map : (float -> float) -> t -> t

val pp : Format.formatter -> t -> unit
(** Prints a small corner of the matrix with its dimensions. *)
