(** The write-ahead update commit. The daemon's leader and follower,
    restart recovery and the crash tests all go through this module, so
    the protocol the crash sweeps kill at every step is the one the
    daemon runs. (The one-shot [repro update] command folds and saves
    without a journal.)

    {!commit} is the sequence journal append (the commit point, fsynced
    under [`Durable]) → exact rank-1 {!fold} → artifact save → journal
    truncate. A crash anywhere after the append is repaired by
    {!Recovery}, which replays the journaled entry through {!rule} and
    {!fold}. *)

type verdict =
  | Apply  (** The stored revision is the entry's base: fold it in. *)
  | Stale
      (** The store is already past the base: the update is in (a save
          that completed before a crash, or a duplicate delivery). *)
  | Gap
      (** The store is behind the base: an earlier update is missing and
          this one cannot apply. *)

val rule : rev:int -> Journal.entry -> verdict
(** Where an entry stands against a stored artifact at revision [rev]. *)

val fold : Artifact.t -> Journal.entry -> Artifact.t
(** The exact rank-1 update of a base artifact by the entry's batch
    ([Incremental.of_artifact → add_batch → to_artifact]); the result
    has revision [base.rev + 1]. Writes nothing. The fold is
    deterministic, so replicas that fold the same entries in the same
    order hold byte-identical artifacts. *)

val commit :
  durability:Store.durability ->
  root:string ->
  Journal.t ->
  Artifact.t ->
  Journal.entry ->
  Artifact.t
(** [commit ~durability ~root journal base entry] appends [entry] to
    [journal], folds it into [base] (for which {!rule} must be [Apply]),
    saves the result under [root] with [durability] and truncates the
    journal; it returns the saved artifact. On any exception the journal
    is truncated, so a refused update is never replayed at the next
    start, and the exception is re-raised. *)
