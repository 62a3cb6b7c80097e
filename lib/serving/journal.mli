(** Checksummed write-ahead journal for incremental updates.

    {!Update.commit} appends an update's raw samples here and (under
    [`Durable]) fsyncs before it computes the new posterior and saves
    the artifact; once the artifact save is itself durable it truncates
    the journal. A crash at any point therefore leaves one of two
    recoverable shapes: the journal holds the update and the artifact
    is still at the base revision (recovery replays it), or the
    artifact already advanced (recovery discards the entry).
    Acknowledged updates survive either way.

    On-disk format, written by {!Codec} (little-endian i64 integers,
    IEEE-754 float bits, length-prefixed strings/arrays): an 8-byte
    magic ["BMFJRNL1"], then per entry

    {v u64 payload_len | u64 fnv64(payload) | payload v}

    where the payload is the model key, the base revision, [xs] as
    [rows | cols | rows * cols | floats] and [f] as [count | floats].

    A torn tail — short header, short payload, checksum mismatch or
    undecodable payload — terminates the scan; the intact prefix is
    still returned. *)

type entry = {
  meta : Artifact.meta;
  base_rev : int;
      (** Artifact revision the update applies on top of; the replayed
          artifact gets revision [base_rev + 1]. *)
  xs : Linalg.Mat.t;  (** New sample points, rows x dim. *)
  f : Linalg.Vec.t;  (** New responses, length rows. *)
}

val file : root:string -> string
(** [root/journal.bmfj] — excluded from {!Store.list} by extension. *)

(** {2 Append handle (driven by {!Update.commit})} *)

type t

val open_ : ?durability:Store.durability -> root:string -> unit -> t
(** Opens (creating [root], its parents and the file as needed) and
    resets the journal to a clean header-only state — run
    {!Recovery.recover} {e first}; any tail still present is discarded
    here. Default durability: [`Durable]. *)

val append : t -> entry -> unit
(** Appends one checksummed entry; under [`Durable] the entry is
    fsynced before [append] returns, so the caller may apply the update
    and acknowledge it knowing a crash can no longer lose it. *)

val truncate : t -> unit
(** Drops every journaled entry (call only after the updated artifact
    is durably saved). *)

val entries : t -> int
(** Entries appended since the last {!truncate} (or open). *)

val close : t -> unit

(** {2 Reading (recovery + tests)} *)

val read : root:string -> entry list * string option
(** The longest valid prefix of the journal, plus a description of why
    the tail was discarded (if it was). A missing file is ([], None). *)

val encode_entry : entry -> string
(** The exact on-disk framing of one entry (codec tests). *)

val decode_entries : string -> entry list * string option
(** {!read} over an in-memory byte string (magic included). *)

val decode_entry : string -> (entry, string) result
(** Decodes exactly one framed entry ([u64 len | u64 fnv64 | payload],
    nothing before or after), verifying the checksum — the validation a
    replication follower runs on every wire-shipped WAL record. *)
