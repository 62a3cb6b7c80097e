(** Sparse multi-indices for multivariate polynomial terms.

    A term like [g(x) = g_2(x_3) * g_1(x_7)] is represented sparsely as
    [[| (3, 2); (7, 1) |]]: pairs (variable, degree) sorted by variable
    with strictly positive degrees. The empty array is the constant
    term 1. Sparse storage is essential: the paper's variation spaces have
    up to 66117 variables, but each term touches only a few of them. *)

type t = (int * int) array

val constant : t

val linear : int -> t
(** [linear i] is the term [x_i]. *)

val pure : int -> int -> t
(** [pure i d] is the degree-[d] polynomial in variable [i] alone. *)

val of_pairs : (int * int) array -> t
(** Normalizes: merges duplicate variables (degrees add), drops zero
    degrees, sorts by variable. The work is done in the given array,
    which may be returned as the term: the caller hands it over and
    must not use it afterwards.
    @raise Invalid_argument on negative variables or degrees. *)

val total_degree : t -> int

val variables : t -> int list
(** Variables appearing in the term, ascending. *)

val max_variable : t -> int
(** Largest variable index; [-1] for the constant term. *)

val compare : t -> t -> int
(** Graded order: by total degree, then lexicographic. *)

val equal : t -> t -> bool

val remap : (int -> int) -> t -> t
(** Renames variables through an injective map (used by stage mapping);
    re-sorts the result. *)

val all_up_to_degree : r:int -> d:int -> t list
(** Every multi-index over [r] variables with total degree [<= d], in
    graded order with the constant first. Intended for small [r]; the
    count is C(r + d, d).
    @raise Invalid_argument if the basis would exceed [2^22] terms. *)

val pp : Format.formatter -> t -> unit
(** Prints like [x3^2*x7] (or [1] for the constant). *)
