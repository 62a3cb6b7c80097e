(** Follower-side installation of catch-up snapshots.

    {!snapshot} installs a full-artifact transfer: the bytes are decoded
    (checksum-verified) and saved. Snapshots never touch the journal —
    they are idempotent whole-state writes. Streamed journal entries do
    not come through here: the follower applies them with the same
    {!Serving.Update.commit} as the leader (see [Server.Daemon]), so a
    follower killed mid-apply recovers by the ordinary
    {!Serving.Recovery} replay. *)

val snapshot :
  ?durability:Serving.Store.durability ->
  root:string ->
  string ->
  (Serving.Artifact.t, string) result
(** Decodes and installs one snapshot (any codec {!Serving.Artifact}
    accepts); skips the save when the local artifact is already at or
    past the snapshot's revision and returns the newer local one.
    Default durability: [`Durable]. *)
