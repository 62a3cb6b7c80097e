(** On-disk model registry: fitted-model artifacts keyed by
    (circuit, metric, scale, seed) — {!Artifact.meta} — in a flat
    directory with self-describing filenames like
    [ro__frequency__default__s20130602__h1a2b3c4d.bmfa]. The [__h…]
    component is a digest of the {e raw} key triple: the human-readable
    fields are sanitized lossily, so without it distinct keys
    ("gain+bw" vs "gain_bw") would collide on one file. One key holds
    at most one artifact; saving replaces any stale copy in the other
    codec and under the pre-digest legacy name. *)

val default_root : unit -> string
(** [$BMF_MODEL_DIR] when set, else ["models"]. *)

type durability = [ `Fast | `Durable ]
(** [`Fast] leaves flushing to the kernel — the file is atomically
    visible but may be lost on power failure until the kernel writes it
    back. [`Durable] fsyncs the temp file before the rename and the
    directory after it, so once {!save} returns the new revision
    survives SIGKILL {e and} power loss. The daemon saves [`Durable];
    benches and one-shot CLI fits default to [`Fast]. *)

val sanitize : string -> string
(** Maps every character outside [[A-Za-z0-9.-]] to ['_']: the
    readable, lossy part of a registry filename. *)

val filename : Artifact.meta -> Artifact.format -> string
(** The registry filename for a key (components sanitized, digest
    suffix appended). *)

val save :
  ?format:Artifact.format ->
  ?durability:durability ->
  root:string ->
  Artifact.t ->
  string
(** Persists an artifact under its own key, creating [root] as needed
    (default format [Binary], default durability [`Fast]); returns the
    file path written.

    The write is crash- and race-safe: the payload goes to a private
    temp file in [root] first and is atomically renamed over the key,
    so a concurrent reader — e.g. a running serving daemon reloading
    its model cache while [repro update] saves — can never observe a
    torn artifact. Stale copies (other codec, legacy pre-digest names)
    are removed only after the new file is in place. *)

(** {2 The atomic file writer}

    Every file the registries keep — [.bmfa] artifacts here, [.bmfe]
    ensemble states in [Ensemble.Store] — is written through
    {!write_atomic}, so they share one crash protocol and recovery's
    temp-file sweep covers them all. *)

val mkdir_p : string -> unit
(** Creates a directory and any missing parents. *)

val write_all : Unix.file_descr -> string -> unit
(** Writes the whole string, retrying short writes. *)

val write_atomic :
  durability:durability -> dir:string -> name:string -> string -> float
(** [write_atomic ~durability ~dir ~name data] replaces [dir/name] with
    [data], creating [dir] as needed: write a private
    [.{name}.tmp.{pid}] (fsynced under [`Durable]), rename it over
    [name], then (under [`Durable]) fsync [dir]. A reader sees the old
    or the new file, never a torn one. Each of those syscalls is a
    {!Crashpoint.step}. Returns the seconds spent in fsync (0 under
    [`Fast]); the temp file is removed if the write or rename raises. *)

val is_temp : string -> bool
(** Whether a directory entry is a {!write_atomic} temp file. *)

val read_file : string -> (string, string) result
(** The whole file; the error names the file. *)

val find : root:string -> Artifact.meta -> string option
(** The stored file for a key, if present (binary preferred; legacy
    pre-digest filenames are probed after digest-suffixed ones). *)

val load : root:string -> Artifact.meta -> (Artifact.t, string) result
(** Loads and checksum-verifies the artifact for a key. *)

type entry = {
  file : string;
  format : Artifact.format;
  bytes : int;  (** On-disk size of the artifact file. *)
  verify_seconds : float;
      (** Wall-clock decode + checksum-verification time. *)
  status : (Artifact.t, string) result;
      (** [Error] = unreadable or corrupt (checksum mismatch). *)
}

val list : root:string -> entry list
(** Every artifact file in the registry, loaded and verified, sorted by
    filename. An empty or missing root yields []. Temp files from
    interrupted saves are excluded. *)

val list_temp_files : root:string -> string list
(** Orphaned [.*.tmp.*] files left by a save that crashed between the
    temp write and the rename — {!Recovery} removes them. *)

val verify : root:string -> Artifact.meta -> (unit, string) result
(** Checksum verification of one key's stored artifact. *)
