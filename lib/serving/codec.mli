(** The one little-endian binary codec behind every byte format the
    system writes: model artifacts ([.bmfa]), journal entries, ensemble
    state ([.bmfe]) and wire frames. Each format keeps its own field
    order and matrix layout; this module only moves the bytes.

    Ints are i64, floats their IEEE-754 bits, strings and float arrays
    are prefixed by an i64 count. Float runs are copied straight between
    the bytes and a [float array] or a matrix's Bigarray, with no
    per-float boxing: a call allocates O(1) minor words beyond its
    result. The reader bounds every claimed length against the bytes
    left before it allocates or loops, in a form that cannot overflow,
    and reports every failure as {!Short}. *)

val fnv64 : string -> int -> int -> int64
(** [fnv64 s off len]: FNV-1a 64 of [len] bytes of [s] from [off] — the
    checksum of both envelopes and of every journal entry, and the
    stores' filename digests. @raise Invalid_argument on a bad range. *)

(** {2 Writer} *)

type writer
(** A growable byte buffer. *)

val writer : int -> writer
(** An empty writer with room for that many bytes. *)

val length : writer -> int
val contents : writer -> string
val put_u8 : writer -> int -> unit
val put_bool : writer -> bool -> unit
val put_int32 : writer -> int -> unit
val put_int : writer -> int -> unit
val put_float : writer -> float -> unit
val put_string : writer -> string -> unit
val put_floats : writer -> float array -> unit

val put_mat : writer -> Linalg.Mat.t -> unit
(** The [rows * cols] entries row by row, with no dimensions: each
    format writes its own. *)

val put_lower : writer -> Linalg.Mat.t -> unit
(** A square matrix's lower triangle packed row by row, with no count. *)

val skip : writer -> int -> int
(** Reserves bytes to fill later with [set_*]; returns their offset. *)

val set_int32 : writer -> int -> int -> unit
val set_int64 : writer -> int -> int64 -> unit

val fnv64_from : writer -> int -> int64
(** {!fnv64} of the bytes written from an offset on. *)

(** {2 Reader} *)

exception Short of string
(** A truncated input, an implausible length or size, an i64 outside
    the int range, or trailing bytes; each format prefixes the message
    with its own name. *)

type reader

val reader : ?eof:string -> ?off:int -> ?len:int -> string -> reader
(** A reader over [len] bytes from [off] (default: the whole string).
    Reading past them raises [Short eof] (default ["truncated"]). *)

val get_u8 : reader -> int
val get_bool : reader -> bool
val get_int32 : reader -> int
val get_int : reader -> int
val get_int64 : reader -> int64
val get_float : reader -> float
val get_string : reader -> string

val get_count : reader -> per:int -> string -> int
(** A count of elements of at least [per] bytes each; [Short msg] when
    it is negative or more than the bytes left could hold. *)

val get_floats : reader -> string -> float array
(** [Short "implausible <what> length"] on a bad count. *)

val get_mat : reader -> string -> int -> int -> Linalg.Mat.t
(** [get_mat rd what rows cols] reads a fresh matrix written by
    {!put_mat}. A claim the bytes left cannot hold — including more rows
    than bytes left when [cols = 0] — raises
    [Short "implausible <what> size"] before anything is allocated.
    The caller checks that the dimensions are not negative. *)

val get_lower : reader -> int -> Linalg.Mat.t
(** [get_lower rd k] reads a {!put_lower} triangle into a fresh [k x k]
    matrix, zero above the diagonal. *)

val parse :
  ?eof:string -> ?off:int -> ?len:int -> string -> (reader -> 'a) ->
  ('a, string) result
(** Runs a decoder over a {!reader} that it must read to the end:
    [Error "trailing bytes"] if it stops short, [Error msg] on [Short]. *)

(** {2 Envelope: [magic | u64 fnv64(payload) | payload]} *)

val sealed : magic:string -> size:int -> (writer -> unit) -> string
(** The sealed bytes of the payload [write] puts on a writer with room
    for [size] bytes. *)

val unsealed :
  magic:string -> ?eof:string -> string -> (reader -> 'a) -> ('a, string) result
(** {!parse} over the payload once the magic and the checksum hold,
    else ["truncated file"], ["bad magic"] or
    ["checksum mismatch (corrupt file)"]. *)
