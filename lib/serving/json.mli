(** Minimal JSON tree, canonical printer and parser, with no external
    dependencies: enough for [/health], the ensemble stats,
    [repro models --json] and [repro trace-merge].

    The printer is canonical: fixed field order (as constructed), no
    whitespace, floats via [%.17g] (integers without a fraction part) so
    every IEEE double round-trips exactly, and
    [to_string (parse s) = s] for any [s] the printer produced. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of string

val to_string : t -> string
(** Canonical rendering.
    @raise Invalid_argument on non-finite numbers (encode those as
    strings upstream). *)

val of_string : string -> (t, string) result

val member : string -> t -> t option
(** Field lookup on an object; [None] on missing field or non-object. *)

val of_float : float -> t
(** A number, or the string ["nan"], ["inf"] or ["-inf"] for a
    non-finite float (which {!to_string} cannot print as a number). *)

val to_float : t -> float option
(** Inverse of {!of_float}. *)

val to_int : t -> int option
(** Numbers with an integral value only. *)

val to_str : t -> string option

val to_arr : t -> t list option
