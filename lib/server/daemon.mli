(** Micro-batching BMF prediction daemon, optionally sharded over
    multiple cores.

    A [Unix.select] event loop accepts TCP or Unix-domain-socket
    connections speaking the {!Wire} protocol and deals each client
    connection to a serving {e worker}, which feeds a {e bounded}
    request queue. A batch window closes [batch_delay_s] after its
    oldest admission (immediately when 0): all admitted [predict]
    requests are grouped by (model, with_std) and every group is served
    by {e one} blocked {!Serving.Predictor} call — basis evaluation and
    the per-query variance solves shard across the [Parallel.Pool].
    Because the predictor kernels are row-independent and results are
    re-split by request, batched answers are bit-identical to direct
    in-process calls.

    Workers read models from immutable snapshots ({!Serving.Snapshot},
    the daemon's only model store) that the {e writer} publishes with a
    single [Atomic] swap. The writer owns the accept loops, the
    write-ahead journal commit point, replication fan-out, the follower
    link and the HTTP scrape endpoint; [update], [ensemble_stats] and
    [promote] travel to it as request messages and their replies travel
    back to the worker that admitted them. With [config.shards = 1]
    (the default) the single worker runs inline on the calling domain —
    no domains are spawned, so the process remains fork-safe. With
    [shards = N >= 2], {!run} spawns [N] worker domains, each running
    the same worker step in its own select loop. An update's snapshot
    is published before its acknowledgement is queued, so a client that
    sees the ack observes the new revision from any worker. Responses
    are bit-identical at every shard count.

    Consistency model: requests admitted in the same window are served
    against the model revision current at the start of the window; an
    update takes effect once committed (and is persisted to the
    {!Serving.Store} before the response frame is queued).

    Leader and follower commit an update the same way: the writer takes
    the base revision from the published snapshot, scores the batch
    for calibration and for every ensemble holding the model, runs
    {!Serving.Update.commit} (journal append, exact rank-1 fold, durable
    save, journal truncate), publishes the new revision and only then
    commits the ensembles' evidence. The leader builds the journal entry
    from a client [update] and ships it to subscribers; the follower
    takes it from the link, skips it when its store is already past the
    entry's base ([Stale]), drops the link on a revision gap, and acks
    the sequence once applied.

    Backpressure is explicit: when a worker's queue is full a [Busy]
    error frame is sent immediately — the daemon never buffers
    unboundedly. Predict batches whose response could not fit in one
    frame are refused with [Bad_request] at admission (see
    {!Wire.max_predict_rows}), and a connection that stops reading its
    responses stops being read once its queued output passes an
    internal bound, so per-connection memory stays bounded even against
    a client that pipelines but never reads.
    Requests carrying a deadline that expires before execution get a
    [Deadline_exceeded] error instead of stale work. On SIGTERM/SIGINT
    ({!install_signal_handlers}) the daemon stops accepting, refuses
    new requests with [Shutting_down], drains in-flight work, flushes
    every connection and returns from {!run}.

    Everything is instrumented through [Obs.Metrics]:
    [bmf_server_requests_total], per-opcode latency histograms
    ([bmf_server_predict_seconds], [bmf_server_predict_var_seconds],
    [bmf_server_update_seconds], [bmf_server_admin_seconds]), the
    [bmf_server_batch_points] gauge, the [bmf_server_queue_depth] gauge
    (summed over workers) and error counters ([bmf_server_busy_total],
    [bmf_server_deadline_total], [bmf_server_errors_total]). Replication
    publishes [bmf_server_role{role=...}] (1 on the active series),
    [bmf_repl_follower_lag_entries], [bmf_repl_apply_delay_seconds] and,
    on a follower, [bmf_repl_applied_total], [bmf_repl_stale_total] and
    the [bmf_repl_apply_seconds] histogram (timing the whole apply:
    calibration, evidence scoring, commit and publish); accepted updates
    feed the per-model [bmf_calibration_*] gauges (see
    {!Serving.Calibration}). *)

type address = Tcp of string * int | Unix_socket of string

val pp_address : Format.formatter -> address -> unit

val address_to_string : address -> string
(** [tcp://host:port] or [unix://path] — the form {!parse_address}
    accepts and the [Not_leader] error message embeds. *)

val parse_address : string -> address option
(** Inverse of {!address_to_string}. [None] on anything else. *)

type config = {
  queue_capacity : int;
      (** Bounded request queue per worker (queued reads plus updates
          in flight at the writer); a full queue answers [Busy]. 0
          refuses every predict/update — useful to exercise
          backpressure. *)
  max_batch : int;
      (** Maximum query points fused into one blocked predictor call;
          larger groups split at request granularity. *)
  batch_delay_s : float;
      (** A window closes this long after its oldest admission (0 =
          immediately) — a pacing/testing aid (lets deadlines expire
          deterministically in tests). The loop never sleeps past a
          nearer per-request deadline: expired requests are refused
          when they expire, not when the window closes. *)
  durability : Serving.Store.durability;
      (** [`Durable] (the default): every update is write-ahead
          journaled + fsynced before it is applied, and the artifact
          save fsyncs file and directory — an acknowledged update
          survives SIGKILL and power loss. [`Fast] skips the fsyncs
          (benchmarks). *)
  http : address option;
      (** Scrape endpoint: a second listener served from the same
          select loop (no threads) answering [GET /metrics] (Prometheus
          text exposition), [GET /health] / [/healthz] (liveness JSON:
          role, readiness, recovery report, replication lag overall and
          per model, queue depth), [GET /ready] (same JSON, status 503
          until ready — a follower is ready once its initial catch-up
          completed) and [GET /events] (the {!Obs.Events} ring).
          [None] (the default): no HTTP listener. *)
  shards : int;
      (** Serving workers (>= 1). [1]: one worker runs inline on the
          domain that calls {!run}, no domains spawned. [N >= 2]: {!run}
          spawns [N] worker domains. Each worker reports
          [bmf_server_shard_requests_total{shard=...}],
          [bmf_server_shard_queue_depth{shard=...}] and
          [bmf_server_shard_connections{shard=...}]. *)
  http_idle_s : float;
      (** Read deadline for scrape connections (> 0): an HTTP peer that
          has not completed its request within this many seconds is
          dropped and counted in
          [bmf_server_http_idle_drops_total], so stalled or trickling
          scrapers cannot occupy conn-table slots indefinitely. Wire
          clients are unaffected. *)
}

val default_config : config
(** [{ queue_capacity = 256; max_batch = 4096; batch_delay_s = 0.;
      durability = `Durable; http = None; shards = 1; http_idle_s = 5. }]
    Requests slower than 0.25 s (admission to reply) emit a
    [slow_request] event when the {!Obs.Events} log is on. *)

type t

val create : ?config:config -> ?follow:address -> root:string -> address -> t
(** Runs {!Serving.Recovery.recover} over [root] — temp-file sweep,
    full checksum verification, journal-tail replay — then opens the
    write-ahead journal, binds and listens. [Tcp (host, 0)] binds an
    ephemeral port — read it back with {!address}. A stale Unix-socket
    path is unlinked first.

    [~follow] starts the daemon as a {e follower} of the leader at that
    address: it connects (retrying with capped exponential backoff),
    subscribes with its per-model revision vector, catches up via
    snapshot-then-tail and applies every streamed WAL entry under the
    same journal-append-before-apply durability contract as a leader
    update — a follower killed mid-apply recovers with the ordinary
    recovery pass. A follower serves [predict]/[predict_with_variance]/
    [list_models]/[stats] and refuses [update] (and [subscribe]) with
    [Not_leader] naming the leader address. A [Promote] request flips
    it to leader after the buffered stream is applied.
    @raise Unix.Unix_error when binding fails. *)

val role : t -> [ `Leader | `Follower of address ]
(** Current replication role (changes on promote — also surfaced as the
    [role] field of the wire [stats] payload). *)

val journal_seq : t -> int
(** Leader: updates committed since start. Follower: last leader commit
    sequence durably applied or subsumed by a catch-up snapshot. *)

val recovery : t -> Serving.Recovery.report
(** What {!create}'s recovery pass found and replayed (also surfaced as
    [recovered_updates] in the wire [stats] response and the
    [bmf_server_recovered_updates_total] metric). *)

val address : t -> address
(** The actually-bound address (ephemeral TCP port resolved). *)

val http_address : t -> address option
(** The actually-bound scrape address when [config.http] was set
    (ephemeral TCP port resolved), [None] otherwise. *)

val stop : t -> unit
(** Request graceful shutdown: async-signal-safe and callable from any
    domain; {!run} drains and returns. Idempotent. *)

val stopping : t -> bool

val install_signal_handlers : t -> unit
(** SIGTERM and SIGINT invoke {!stop}; SIGPIPE is ignored. *)

val run : t -> unit
(** Serve until {!stop}. With [config.shards >= 2] this spawns the
    worker domains on entry and joins them before returning. Returns
    after the drain completed — every worker quiesced (in-flight work
    finished or refused, connections flushed) — and every socket is
    closed; the listening socket (and Unix socket path) are
    released. *)
