(** JSON string literals. *)

val add : Buffer.t -> string -> unit
(** Append [s] as a quoted JSON string: quote, backslash, newline,
    carriage return and tab get their short escapes, other control
    bytes [\u00XX]; every other byte passes through verbatim. *)

val quote : string -> string
(** [s] as a quoted JSON string, as {!add} writes it. *)
