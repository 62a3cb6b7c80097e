(** Descriptive statistics of float samples. *)

type summary = {
  count : int;
  mean : float;
  std : float;  (** Unbiased (n-1) standard deviation. *)
  min : float;
  max : float;
  median : float;
  q1 : float;  (** First quartile. *)
  q3 : float;  (** Third quartile. *)
  skewness : float;
  kurtosis_excess : float;
}

val mean : Linalg.Vec.t -> float

val variance : Linalg.Vec.t -> float
(** Unbiased sample variance; [0.] for fewer than two points. *)

val std : Linalg.Vec.t -> float

val quantile : Linalg.Vec.t -> float -> float
(** Linear-interpolation quantile of an unsorted sample; [p] in [0, 1].
    @raise Invalid_argument on an empty sample or [p] outside [0, 1]. *)

val summarize : Linalg.Vec.t -> summary
(** @raise Invalid_argument on an empty sample. *)
