(** Blocking client for the BMF prediction daemon.

    One connection, synchronous request/response: each call encodes a
    {!Wire} frame, writes it, and blocks until the matching response
    frame (by request id) arrives. Server-side refusals — backpressure
    ([Busy]), expired deadlines, unknown models — come back as
    [Error Wire.error]; transport and protocol breakage raise
    {!Transport}.

    When [Obs.Trace] is recording, every call runs inside a [cli_<op>]
    span whose (trace id, span id) context is stamped on the outgoing
    frame (protocol v2) — the daemon's request spans, and for updates
    the follower's apply span, join the same distributed trace. With
    tracing off, frames stay v1 and nothing is recorded. *)

exception Transport of string
(** The connection died or the peer broke framing. *)

type t

val connect : ?retries:int -> ?retry_delay_s:float -> Daemon.address -> t
(** Connects, retrying [retries] times (default 50) every
    [retry_delay_s] (default 0.1 s) while the endpoint refuses or does
    not exist yet — lets a client start concurrently with the daemon.
    @raise Transport when the endpoint never comes up. *)

val address : t -> Daemon.address
(** The endpoint this client dials (and {!reconnect} re-dials). *)

val close : t -> unit
(** Idempotent. *)

val reconnect : t -> unit
(** Closes (if needed) and dials {!address} again under a capped
    exponential backoff with jitter — the recovery move after an
    [ECONNREFUSED] (daemon restarting) or [EPIPE]/reset (dropped
    socket) surfaced as {!Transport}. Attempts are bounded by the
    backoff policy; a successful reconnect rearms it.
    @raise Transport when the attempts are exhausted. *)

val ping : t -> (unit, Wire.error) result

val predict :
  t ->
  ?deadline_ms:int ->
  Serving.Artifact.meta ->
  Linalg.Mat.t ->
  (Linalg.Vec.t, Wire.error) result
(** Predicted means for each query row, bit-identical to
    [Serving.Predictor.predict] on the same artifact. *)

val predict_with_std :
  t ->
  ?deadline_ms:int ->
  Serving.Artifact.meta ->
  Linalg.Mat.t ->
  (Linalg.Vec.t * Linalg.Vec.t, Wire.error) result

val update :
  t ->
  ?deadline_ms:int ->
  Serving.Artifact.meta ->
  xs:Linalg.Mat.t ->
  f:Linalg.Vec.t ->
  (int * int, Wire.error) result
(** Folds new samples into the stored model; returns (new revision,
    new sample count K). *)

val predict_ensemble :
  t ->
  ?deadline_ms:int ->
  name:string ->
  Linalg.Mat.t ->
  (Linalg.Vec.t * Linalg.Vec.t * Linalg.Vec.t, Wire.error) result
(** BMA-weighted prediction over the named ensemble: per query row the
    weighted mean, within-model variance (Σᵢ wᵢσᵢ²) and between-model
    variance (Σᵢ wᵢ(μᵢ − μ̄)²), bit-identical to
    [Ensemble.Predictor.predict] on the same state and artifacts. *)

val ensemble_stats : t -> ?name:string -> unit -> (string, Wire.error) result
(** The daemon's ensemble weight/evidence state as JSON — one object
    for [~name], an array of every loaded ensemble without it. Asking
    also makes the daemon re-read ensemble definitions from disk, so a
    freshly [repro ensemble add]ed canary is picked up live. *)

val list_models : t -> (Wire.model_info list, Wire.error) result

type server_stats = {
  uptime_s : float;
  requests : float;  (** Requests served since start. *)
  recovered_updates : float;
      (** Updates replayed by recovery at the last restart. *)
  role : string;  (** ["leader"] or ["follower"]. *)
  journal_seq : int;
      (** Leader: commits since start; follower: last leader sequence
          applied. *)
  shards : int;  (** Serving shards the daemon runs with. *)
  metrics_json : string;
}

val stats : t -> (server_stats, Wire.error) result

val events : t -> (string, Wire.error) result
(** The daemon's structured event ring as JSON (see
    [Obs.Events.to_json]): promotions, recovery, subscriber churn, slow
    requests. *)

val promote : t -> (bool * int, Wire.error) result
(** Asks the daemon to become leader; returns (was it a follower,
    journal sequence at takeover). Promoting a leader is a no-op that
    returns [(false, seq)]. *)

val leader_hint : Wire.error -> Daemon.address option
(** The leader address a [Not_leader] refusal names, if parseable. *)

val update_with_redirect :
  t ->
  ?deadline_ms:int ->
  Serving.Artifact.meta ->
  xs:Linalg.Mat.t ->
  f:Linalg.Vec.t ->
  ((int * int, Wire.error) result * Daemon.address option)
(** Like {!update}, but when a follower answers [Not_leader] the call
    retries once against the leader it named (over a short-lived
    connection) and returns that address as evidence of the redirect. *)
