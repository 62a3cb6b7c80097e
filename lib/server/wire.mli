(** Binary wire protocol for the BMF prediction daemon.

    Every message travels in one length-prefixed little-endian frame:

    {v
      u32  length of the rest of the frame (header + body)
      u8   protocol version (1 or 2)
      u8   kind: request opcode, 0 (OK) or an error code for responses
      u64  request id (echoed verbatim in the response)
      u32  request deadline in ms (0 = none; 0 in responses)
      u64  trace id   (v2 only; 0 = no distributed trace)
      u64  span id    (v2 only; the sender's open span)
      body
    v}

    Version 2 (this release) appends a distributed-trace context to the
    header; decoders accept both versions, so v1 peers interoperate
    with a v2 daemon in either direction. Requests frame as v1 unless a
    trace context is attached; pushes always frame as v2 because their
    v2 bodies carry the leader's commit timestamp.

    Headers and bodies are written by {!Serving.Codec}; a matrix is
    [rows | cols | floats]. Frames over {!max_frame_len} are rejected
    before any allocation, and no count, length or matrix size in a body
    is believed beyond the bytes received, so a hostile or corrupt peer
    cannot force an out-of-memory or a long loop. *)

val version : int
(** Newest protocol version this build speaks (2). *)

val min_version : int
(** Oldest version still decoded (1). *)

val max_frame_len : int
(** Upper bound on the post-length portion of a frame (16 MiB). *)

val header_len : int
(** Bytes of v1 header after the length word. *)

val header_len_v2 : int
(** Bytes of v2 header after the length word ({!header_len} + 16). *)

val max_predict_rows : with_std:bool -> int
(** Largest predict batch whose [Predicted] response still fits in one
    frame. Servers refuse larger batches with [Bad_request] at admission
    so response encoding can never exceed {!max_frame_len}. *)

val max_ensemble_rows : int
(** Largest ensemble batch whose [Ensemble_predicted] response (three
    float arrays per row) still fits in one frame. *)

(** {2 Message types} *)

type opcode =
  | Ping
  | Predict
  | Predict_var
  | Update
  | List_models
  | Stats
  | Subscribe  (** Open a replication stream; answered by pushes. *)
  | Repl_ack  (** Follower ack of applied entries; no response. *)
  | Promote  (** Flip a follower to leader. *)
  | Events  (** Dump the daemon's structured event ring. *)
  | Predict_ensemble  (** BMA-weighted prediction over a named ensemble. *)
  | Ensemble_stats  (** Ensemble weight/evidence state as JSON. *)

val opcode_name : opcode -> string

type request =
  | Ping_req
  | Predict_req of {
      meta : Serving.Artifact.meta;
      points : Linalg.Mat.t;  (** rows = query points. *)
      with_std : bool;
    }
  | Update_req of {
      meta : Serving.Artifact.meta;
      xs : Linalg.Mat.t;
      f : Linalg.Vec.t;
    }
  | List_models_req
  | Stats_req
  | Subscribe_req of { vector : (Serving.Artifact.meta * int) list }
      (** The follower's per-model revision vector; the leader snapshots
          every model that is missing or behind, then streams entries. *)
  | Repl_ack_req of { seq : int }
      (** Every entry up to leader-commit [seq] is durably applied. *)
  | Promote_req
  | Events_req
  | Predict_ensemble_req of {
      name : string;
      points : Linalg.Mat.t;  (** rows = query points. *)
    }
  | Ensemble_stats_req of { name : string }
      (** [""] asks for every loaded ensemble. *)

val opcode_of_request : request -> opcode

type error_code =
  | Busy  (** Request queue full — back off and retry. *)
  | Deadline_exceeded
  | Model_not_found
  | Bad_request
  | Internal
  | Shutting_down
  | Protocol  (** Malformed frame; the connection is closed after this. *)
  | Not_leader
      (** Updates (and subscriptions) must go to the leader; the message
          names its address ([tcp://host:port] or [unix://path]). *)

val error_code_name : error_code -> string

type error = { code : error_code; message : string }

type model_info = {
  meta : Serving.Artifact.meta;
  rev : int;
  samples : int;  (** K *)
  terms : int;  (** M *)
  dim : int;  (** Variation-space dimension of the basis. *)
  file : string;
  bytes : int;
}

type response =
  | Pong
  | Predicted of { means : Linalg.Vec.t; stds : Linalg.Vec.t option }
  | Updated of { rev : int; samples : int }
  | Models of model_info list
  | Stats_payload of {
      uptime_s : float;
      requests : float;
      recovered_updates : float;
          (** Journaled updates replayed at the last restart
              ([bmf_server_recovered_updates_total]). *)
      role : string;  (** ["leader"] or ["follower"]. *)
      journal_seq : int;
          (** Leader: updates committed since start. Follower: the last
              leader commit sequence durably applied or embodied in a
              catch-up snapshot. *)
      shards : int;
          (** Serving workers the daemon runs with ([config.shards]);
              [1] when its one worker runs inline on the main domain. *)
      metrics_json : string;
    }
  | Promoted of { was_follower : bool; journal_seq : int }
  | Events_payload of { json : string }
      (** The [Obs.Events] ring as JSON (see [Obs.Events.to_json]). *)
  | Ensemble_predicted of {
      means : Linalg.Vec.t;  (** BMA predictive mean per query point. *)
      within : Linalg.Vec.t;  (** Σᵢ wᵢσᵢ² — within-model variance. *)
      between : Linalg.Vec.t;  (** Σᵢ wᵢ(μᵢ − μ̄)² — model disagreement. *)
    }
  | Ensemble_stats_payload of { json : string }
      (** One [Ensemble.State.to_json] object, or an array of them for
          the all-ensembles query. *)
  | Error of error

(** {2 Replication pushes}

    Unsolicited leader-to-subscriber frames on a replication stream,
    sent after a [Subscribe_req]. Kind bytes occupy a disjoint space
    (32-35) from responses (0 or an error byte) and requests (1-12).
    The id and deadline header fields are 0. *)

type push =
  | Snapshot_chunk of {
      meta : Serving.Artifact.meta;
      rev : int;
      total : int;  (** Whole-artifact byte count (binary codec). *)
      offset : int;
      data : string;
    }
      (** One slice of a catch-up artifact transfer; the follower
          reassembles until [offset + length data = total]. *)
  | Journal_entry of { seq : int; ts : float; entry : string }
      (** One committed update in the exact on-disk WAL framing
          ([u64 len | u64 fnv64 | payload]) — the follower re-verifies
          the checksum with {!Serving.Journal.decode_entry}. [ts] is
          the leader's wall-clock commit time (0. from a v1 peer),
          the basis of the follower's lag-in-seconds gauge. *)
  | Repl_status of { seq : int; snapshots : int; ts : float }
      (** Catch-up complete: the stream is live at leader commit [seq],
          after [snapshots] snapshot transfers. [ts] is the leader's
          wall clock at send (0. from a v1 peer). Receiving one advances
          the follower's applied sequence, so it is only sent when every
          entry up to [seq] has actually been shipped. *)
  | Repl_heartbeat of { seq : int; ts : float }
      (** Periodic liveness beacon: the leader is alive at commit [seq].
          Unlike {!Repl_status} it carries no catch-up promise — the
          follower refreshes its lag gauges but neither acks nor
          advances its applied sequence. *)

val is_push_kind : int -> bool

val max_snapshot_chunk : int
(** Largest [Snapshot_chunk.data] slice that is guaranteed to frame. *)

(** {2 Encoding} *)

val encode_request :
  id:int -> ?deadline_ms:int -> ?trace:int * int -> request -> string
(** A complete frame, length prefix included. [deadline_ms] defaults to
    0 (none). [trace] is a [(trace_id, span_id)] context: with it the
    frame is v2, without it v1. @raise Invalid_argument on a negative
    id, deadline or trace context. *)

val encode_response : id:int -> response -> string

(** {2 Decoding}

    [peek] scans a receive buffer for one complete frame; request and
    response bodies are then decoded separately so the server never
    pays for a body it is about to refuse. *)

type frame = {
  frame_version : int;  (** 1 or 2. *)
  frame_kind : int;
  frame_id : int;
  frame_deadline_ms : int;
  frame_trace : int;
      (** Distributed trace id; 0 on v1 frames, when the sender had no
          trace, or when the wire value did not fit the positive int
          range (advisory data never kills a stream). *)
  frame_span : int;  (** The sender's span id; 0 as above. *)
  body : string;
}

val peek :
  string -> off:int -> [ `Need of int | `Frame of frame * int | `Bad of string ]
(** Examines [s] from [off]. [`Need n]: at least [n] more bytes are
    required. [`Frame (f, next)]: one complete frame, the next frame (if
    any) starts at [next]. [`Bad msg]: the stream is not speaking this
    protocol (bad version, implausible length) — close the connection. *)

val decode_request : frame -> (request, string) result

val decode_response : expect:opcode -> frame -> (response, string) result
(** Decodes a response frame. Error frames decode to [Error _] for any
    [expect]; success bodies are interpreted according to the opcode of
    the request the caller sent. [Subscribe] and [Repl_ack] define no
    success response — only an error frame decodes for them. *)

val encode_push : ?trace:int * int -> push -> string
(** A complete push frame, length prefix included — always v2 (the v2
    push bodies carry timestamps). [trace] tags a [Journal_entry] with
    the originating update's context so the follower's apply span joins
    the same distributed trace. *)

val decode_push : frame -> (push, string) result
(** Decodes v2 bodies and, keyed on [frame_version], the timestamp-less
    v1 layouts (with [ts = 0.]). *)
