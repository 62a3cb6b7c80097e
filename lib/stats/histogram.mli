(** Fixed-width histograms, used to reproduce the sample histograms of
    Figures 4 and 7. *)

type t = {
  lo : float;  (** Left edge of the first bin. *)
  hi : float;  (** Right edge of the last bin. *)
  counts : int array;
  total : int;
  underflow : int;
  overflow : int;
}

val build : ?bins:int -> ?range:float * float -> Linalg.Vec.t -> t
(** [build data] bins the sample into [bins] (default 30) equal-width bins.
    With no explicit [range], the data range is used (widened slightly so
    the maximum lands inside the last bin).
    @raise Invalid_argument on empty data, non-positive [bins], or an
    empty range. *)

val bin_edges : t -> float array
(** The [bins + 1] edges. *)

val bin_centers : t -> float array

val density : t -> float array
(** Counts normalized so the histogram integrates to 1. *)
