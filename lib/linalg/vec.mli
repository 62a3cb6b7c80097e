(** Dense vectors of unboxed floats.

    A vector is a plain [float array]; this module collects the numerical
    operations used throughout the repository so that callers never write
    index loops by hand. All binary operations require equal lengths and
    raise [Invalid_argument] otherwise. *)

type t = float array

val create : int -> t
(** [create n] is a zero vector of length [n]. *)

val init : int -> (int -> float) -> t
(** [init n f] is [| f 0; ...; f (n-1) |]. *)

val make : int -> float -> t
(** [make n c] is a length-[n] vector filled with [c]. *)

val copy : t -> t
(** Fresh copy. *)

val dim : t -> int
(** Number of entries. *)

val of_list : float list -> t

val to_list : t -> float list

val fill : t -> float -> unit
(** [fill v c] sets every entry of [v] to [c] in place. *)

val dot : t -> t -> float
(** Inner product. *)

val nrm2 : t -> float
(** Euclidean norm, computed with scaling to avoid overflow on large
    entries. *)

val norm1 : t -> float
(** Sum of absolute values. *)

val norm_inf : t -> float
(** Maximum absolute value; [0.] for the empty vector. *)

val scale : float -> t -> t
(** [scale a v] is a fresh vector [a*v]. *)

val scale_inplace : float -> t -> unit

val neg : t -> t

val add : t -> t -> t

val sub : t -> t -> t

val mul : t -> t -> t
(** Elementwise (Hadamard) product. *)

val add_into : t -> t -> t -> unit
(** [add_into x y dst] writes [x + y] into preallocated [dst] (which may
    alias either input); allocation-free, bit-identical to {!add}. *)

val sub_into : t -> t -> t -> unit
(** In-place twin of {!sub}. *)

val mul_into : t -> t -> t -> unit
(** In-place twin of {!mul} (Hadamard product into [dst]). *)

val copy_into : t -> t -> unit
(** [copy_into src dst] blits [src] over equal-length [dst]. *)

val axpy : float -> t -> t -> unit
(** [axpy a x y] performs [y <- a*x + y] in place. *)

val add_inplace : t -> t -> unit
(** [add_inplace x y] performs [y <- x + y]. *)

val sub_inplace : t -> t -> unit
(** [sub_inplace x y] performs [y <- y - x]. *)

val map : (float -> float) -> t -> t

val mapi : (int -> float -> float) -> t -> t

val map2 : (float -> float -> float) -> t -> t -> t

val iteri : (int -> float -> unit) -> t -> unit

val fold : ('a -> float -> 'a) -> 'a -> t -> 'a

val sum : t -> float
(** Kahan-compensated sum of entries. *)

val mean : t -> float
(** Arithmetic mean; raises [Invalid_argument] on the empty vector. *)

val min : t -> float
(** Smallest entry; raises [Invalid_argument] on the empty vector. *)

val max : t -> float
(** Largest entry; raises [Invalid_argument] on the empty vector. *)

val argmax_abs : t -> int
(** Index of the entry with the largest absolute value. *)

val dist2 : t -> t -> float
(** Euclidean distance between two vectors. *)

val rel_error : t -> t -> float
(** [rel_error approx exact] is [||approx - exact||_2 / ||exact||_2]
    (eq. 59 of the paper). Returns the absolute norm of [approx] when
    [exact] is the zero vector. *)

val approx_equal : ?tol:float -> t -> t -> bool
(** Entrywise comparison with absolute-plus-relative tolerance
    (default [tol = 1e-9]). Vectors of different lengths are unequal. *)

val concat : t list -> t

val slice : t -> int -> int -> t
(** [slice v pos len] copies [len] entries starting at [pos]. *)

val pp : Format.formatter -> t -> unit
(** Prints like [[1.5; 2; ...]] (truncates long vectors). *)
