(** Immutable published view of served models.

    The serving workers need one read-mostly source of truth for
    "which artifact (and pre-computed predictor) does model X serve
    right now" that any number of reader domains can consult without a
    lock while a single writer domain replaces it. A {!t} is an
    [Atomic.t] holding an immutable {!view}: readers grab the current
    view once per batch with {!current} and every lookup inside that
    batch is coherent; the writer builds a fresh view and publishes it
    with one [Atomic.set] (release semantics in the OCaml 5 memory
    model, so a reader that observes the new view observes the fully
    constructed entries behind it).

    Single-writer contract: {!publish} and {!load_all} must
    only ever be called from one domain at a time (the daemon's writer
    domain). Readers may call {!current}/{!find} from any domain. *)

type entry = {
  artifact : Artifact.t;
  predictor : Predictor.t;  (** Pre-computed serving state for [artifact]. *)
}

type view
(** An immutable model table. Lookups against one view are coherent:
    the set of models and their revisions cannot change underneath a
    reader holding it. *)

type t

val create : unit -> t
(** A handle whose current view is empty (version 0). *)

val current : t -> view
(** The most recently published view ([Atomic.get]). *)

val version : view -> int
(** Monotonically increasing publication counter; bumped by every
    {!publish} and {!load_all}. Two physically distinct views
    never share a version. *)

val find : view -> Artifact.meta -> entry option

val models : view -> (Artifact.meta * entry) list

val publish : t -> Artifact.t -> entry
(** Writer only: swap in a fresh view in which [artifact]'s model serves
    [artifact] (replacing any previous revision). Returns the published
    entry so the writer can reuse the predictor it just paid for. *)

val load_all : root:string -> t -> int
(** Writer only: publish every loadable artifact in the store under
    [root] in one swap, returning how many models the new view holds.
    Artifacts that fail verification are skipped (the store's recovery
    pass has already reported them). *)
