(** On-disk [.bmfe] registry for ensemble state, sharing the model
    root. Saves go through {!Serving.Store.write_atomic} (temp write +
    atomic rename; fsync file and directory under [`Durable]), so they
    follow the artifact store's crash protocol step for step and
    recovery's temp-file sweep covers them. *)

val extension : string
(** [".bmfe"] — never matched by [Serving.Store.list]. *)

val filename : string -> string
(** Sanitized name plus a digest of the raw name, so distinct ensemble
    names can never collide on disk. *)

val path : root:string -> string -> string

val save : ?durability:Serving.Store.durability -> root:string -> State.t -> string
(** Persists the state; returns the file path. Default durability
    [`Fast]. *)

val find : root:string -> string -> string option

val load : root:string -> string -> (State.t, string) result
(** Checksum-verified load; the not-found error names the root
    directory and the expected filename. *)

val list : root:string -> (string * (State.t, string) result) list
(** Every [.bmfe] under [root] (sorted by filename) with its decode
    status. *)
