(* Select loop + micro-batch executor over one or more serving workers.
   Design notes:

   - Workers own every client connection: the only frame dispatch,
     admission, read and close path. A worker runs predict and ensemble
     kernels against immutable model snapshots published by the writer
     via one [Atomic] swap ([Serving.Snapshot]), so reads take no locks.
     With [shards = 1] (the default) a single worker runs inline on the
     calling domain — no domains spawned, fork-safe. With [shards >= 2]
     each worker runs the same per-tick step in its own select loop on
     its own domain.
   - One writer owns all mutation of shared serving state: the accept
     loops (accepted client fds are dealt round-robin to the workers
     over their mailboxes), the journal commit point, snapshot
     publication, replication fan-out, the follower link and the HTTP
     scrape endpoint. [update], [ensemble_stats] and [promote] travel to
     it as request messages and their encoded replies travel back, so a
     worker never loses track of a request it admitted. Only [subscribe]
     moves a whole connection to the writer. The writer publishes an
     update's snapshot before the ack travels back, so an acked update
     is visible to every worker.
   - Bounded queue: admission happens at frame-parse time and a full
     queue answers Busy immediately — a worker never holds more than
     [queue_capacity] requests (queued reads plus writer requests in
     flight). Connection memory is bounded too: predict batches whose
     response could not fit in one frame are refused at admission, and
     a connection that stops reading its responses stops being read
     once [max_buffered_out] bytes are queued for it.
   - Micro-batching: a batch window closes [batch_delay_s] after its
     oldest admission (immediately when 0); predicts group by
     (model, with_std) and run as single blocked predictor calls, so
     the per-batch costs (basis recurrences, pool dispatch) amortize
     across every connection that hit the window. Row-wise kernels
     make the re-split bit-identical to direct calls at any shard
     count.
   - The select timeout is computed from the nearest pending deadline,
     batch-window close, link retry, heartbeat or HTTP read deadline —
     capped at 0.25 s, never quantized to it.
   - Crash containment: any exception a request raises is turned into
     an error frame for that request; the loop itself never dies. *)

type address = Tcp of string * int | Unix_socket of string

let pp_address fmt = function
  | Tcp (host, port) -> Format.fprintf fmt "tcp://%s:%d" host port
  | Unix_socket path -> Format.fprintf fmt "unix://%s" path

let address_to_string a = Format.asprintf "%a" pp_address a

let parse_address s =
  let strip p =
    let lp = String.length p in
    if String.length s > lp && String.sub s 0 lp = p then
      Some (String.sub s lp (String.length s - lp))
    else None
  in
  match strip "unix://" with
  | Some path -> Some (Unix_socket path)
  | None -> (
      match strip "tcp://" with
      | None -> None
      | Some rest -> (
          match String.rindex_opt rest ':' with
          | None -> None
          | Some i -> (
              let host = String.sub rest 0 i in
              let port = String.sub rest (i + 1) (String.length rest - i - 1) in
              match int_of_string_opt port with
              | Some p when host <> "" && p >= 0 && p < 65536 ->
                  Some (Tcp (host, p))
              | _ -> None)))

type config = {
  queue_capacity : int;
  max_batch : int;
  batch_delay_s : float;
  durability : Serving.Store.durability;
  http : address option;
      (* scrape endpoint (GET /metrics, /health, /ready, /events) served
         from a second listener in the same select loop *)
  shards : int;
      (* serving workers: 1 runs one worker inline on the writer's
         domain (no domains spawned); N >= 2 spawns N worker domains *)
  http_idle_s : float;
      (* a scrape connection that has not completed its request line
         within this many seconds of its last progress is dropped *)
}

let default_config =
  { queue_capacity = 256; max_batch = 4096; batch_delay_s = 0.;
    durability = `Durable; http = None; shards = 1; http_idle_s = 5. }

(* Requests slower than this (admission to reply) emit a [slow_request]
   event when the event log is enabled. *)
let slow_request_s = 0.25

(* ------------------------------------------------------------------ *)
(* Metrics.                                                            *)

let m_requests =
  Obs.Metrics.counter ~help:"Requests received by the serving daemon"
    "bmf_server_requests_total"

let m_errors =
  Obs.Metrics.counter ~help:"Error frames sent by the serving daemon"
    "bmf_server_errors_total"

let m_busy =
  Obs.Metrics.counter ~help:"Requests refused with Busy (queue full)"
    "bmf_server_busy_total"

let m_deadline =
  Obs.Metrics.counter ~help:"Requests expired before execution"
    "bmf_server_deadline_total"

let m_connections =
  Obs.Metrics.counter ~help:"Connections accepted"
    "bmf_server_connections_total"

let m_microbatches =
  Obs.Metrics.counter ~help:"Micro-batched predictor calls executed"
    "bmf_server_microbatches_total"

let g_queue_depth =
  Obs.Metrics.gauge ~help:"Pending requests in the bounded queue"
    "bmf_server_queue_depth"

let g_batch_points =
  Obs.Metrics.gauge ~help:"Query points in the last micro-batched call"
    "bmf_server_batch_points"

let g_connections =
  Obs.Metrics.gauge ~help:"Open connections" "bmf_server_connections"

let h_predict =
  Obs.Metrics.histogram ~help:"predict latency, admission to response (seconds)"
    "bmf_server_predict_seconds"

let h_predict_var =
  Obs.Metrics.histogram
    ~help:"predict_with_variance latency, admission to response (seconds)"
    "bmf_server_predict_var_seconds"

let h_update =
  Obs.Metrics.histogram ~help:"update latency, admission to response (seconds)"
    "bmf_server_update_seconds"

let h_ensemble =
  Obs.Metrics.histogram
    ~help:"predict_ensemble latency, admission to response (seconds)"
    "bmf_server_predict_ensemble_seconds"

let h_admin =
  Obs.Metrics.histogram
    ~help:"ping/list_models/stats handling latency (seconds)"
    "bmf_server_admin_seconds"

let m_http_requests =
  Obs.Metrics.counter ~help:"Scrape-endpoint HTTP requests served"
    "bmf_server_http_requests_total"

let m_http_idle_drops =
  Obs.Metrics.counter
    ~help:"Scrape connections dropped for idling past the read deadline"
    "bmf_server_http_idle_drops_total"

(* Per-shard series complementing the process-wide families above; the
   unlabeled aggregates keep their meaning at any shard count. *)
let shard_label sid = [ ("shard", string_of_int sid) ]

let shard_requests_counter sid =
  Obs.Metrics.counter ~help:"Requests received, per serving shard"
    ~labels:(shard_label sid) "bmf_server_shard_requests_total"

let shard_queue_gauge sid =
  Obs.Metrics.gauge ~help:"Pending requests queued on a serving shard"
    ~labels:(shard_label sid) "bmf_server_shard_queue_depth"

let shard_conns_gauge sid =
  Obs.Metrics.gauge ~help:"Open connections owned by a serving shard"
    ~labels:(shard_label sid) "bmf_server_shard_connections"

(* Follower-side lag, complementing the leader-side
   [bmf_repl_lag_entries] gauge registered by [Replication.Source]. *)
let g_follower_lag_entries =
  Obs.Metrics.gauge
    ~help:"Leader commits not yet applied by this follower (0 on the leader)"
    "bmf_repl_follower_lag_entries"

let m_repl_applied =
  Obs.Metrics.counter ~help:"Replicated journal entries applied"
    "bmf_repl_applied_total"

let m_repl_stale =
  Obs.Metrics.counter ~help:"Replicated entries skipped as already applied"
    "bmf_repl_stale_total"

let m_repl_apply_seconds =
  Obs.Metrics.histogram
    ~help:
      "Per-entry follower apply latency: calibration, evidence scoring, \
       write-ahead commit and publish"
    "bmf_repl_apply_seconds"

let g_apply_delay =
  Obs.Metrics.gauge
    ~help:
      "Seconds between the leader's commit and this follower's apply, for \
       the newest applied entry"
    "bmf_repl_apply_delay_seconds"

(* One labeled series per role, 1 on the active one — the Prometheus
   idiom for enum state, so dashboards can plot failovers. *)
let set_role_metric role =
  let g r =
    Obs.Metrics.gauge ~help:"Daemon replication role (1 on the active series)"
      ~labels:[ ("role", r) ]
      "bmf_server_role"
  in
  Obs.Metrics.set (g "leader") (if role = `Leader then 1. else 0.);
  Obs.Metrics.set (g "follower") (if role = `Leader then 0. else 1.)

(* ------------------------------------------------------------------ *)
(* Connections.                                                        *)

(* What the far end of a connection is to us. [Client] covers ordinary
   request/response traffic; a client that sends [Subscribe] becomes a
   [Subscriber] and starts receiving pushes; [Link_pending]/[Link] are
   the follower's own outbound connection to its leader (non-blocking
   connect in flight / established); [Http] is a scrape-endpoint
   connection speaking HTTP/1.1 instead of the wire protocol. *)
type peer = Client | Subscriber | Link_pending | Link | Http

type conn = {
  fd : Unix.file_descr;
  inbuf : Buffer.t;  (* received, not yet framed *)
  mutable need : int;  (* inbuf bytes required before the next parse *)
  out : string Queue.t;  (* encoded frames awaiting write *)
  mutable out_bytes : int;  (* total bytes queued in [out] *)
  mutable out_off : int;  (* bytes of the head frame already written *)
  mutable close_after_flush : bool;
  mutable closed : bool;
  mutable peer : peer;
  read_deadline_s : float;
      (* monotonic instant after which an unfinished read side is
         dropped ([infinity] = none); only scrape peers get one *)
  mutable inflight : int;  (* admitted requests not yet answered *)
  mutable subscribe : (int * (Serving.Artifact.meta * int) list) option;
      (* a Subscribe frame's id and revision vector: the connection moves
         to the writer once [inflight] reaches 0, and is not read until *)
}

(* Read-side backpressure: once this many encoded bytes are queued for a
   connection we stop reading from it until the client drains some. *)
let max_buffered_out = 2 * Wire.max_frame_len

(* ------------------------------------------------------------------ *)
(* Cross-domain mailbox: a mutex-guarded queue plus a self-pipe so a
   push can wake the receiving domain out of its select. The mutex
   release/acquire pair is the happens-before edge that publishes the
   message payload to the receiver.                                    *)

module Mbox = struct
  type 'a t = {
    mu : Mutex.t;
    q : 'a Queue.t;
    r : Unix.file_descr;
    w : Unix.file_descr;
    wake_buf : Bytes.t;  (* preallocated: pushes must not allocate *)
  }

  let create () =
    let r, w = Unix.pipe ~cloexec:true () in
    Unix.set_nonblock r;
    Unix.set_nonblock w;
    { mu = Mutex.create (); q = Queue.create (); r; w;
      wake_buf = Bytes.make 1 '!' }

  (* A full pipe (EAGAIN) means a wake-up is already pending. *)
  let wake t =
    try ignore (Unix.write t.w t.wake_buf 0 1) with Unix.Unix_error _ -> ()

  let push t x =
    Mutex.lock t.mu;
    Queue.add x t.q;
    Mutex.unlock t.mu;
    wake t

  let drain t =
    Mutex.lock t.mu;
    let xs = Queue.fold (fun acc x -> x :: acc) [] t.q in
    Queue.clear t.q;
    Mutex.unlock t.mu;
    List.rev xs

  let clear_wake ~scratch t =
    try
      while Unix.read t.r scratch 0 64 > 0 do
        ()
      done
    with Unix.Unix_error _ -> ()

  let close t =
    (try Unix.close t.r with Unix.Unix_error _ -> ());
    try Unix.close t.w with Unix.Unix_error _ -> ()
end

(* Admitted work. Reads ([Wpredict], [Wensemble]) queue on the admitting
   worker; the rest travel to the writer, which alone may commit,
   reload ensemble definitions or change role. *)
type work =
  | Wpredict of {
      meta : Serving.Artifact.meta;
      points : Linalg.Mat.t;
      with_std : bool;
    }
  | Wensemble of { name : string; points : Linalg.Mat.t }
  | Wupdate of {
      meta : Serving.Artifact.meta;
      xs : Linalg.Mat.t;
      f : Linalg.Vec.t;
    }
  | Wensemble_stats of string
  | Wpromote

type pending = {
  p_conn : conn;  (* touched only by the admitting worker *)
  p_id : int;
  admitted_s : float;
  (* Raw-monotonic admission instant ({!Obs.Clock.monotonic_raw}) used
     only for batch-window pacing: a frozen injected test clock must
     suspend deadline expiry without also wedging the window close. *)
  admitted_mono : float;
  expires_s : float;  (* [infinity] = no deadline *)
  work : work;
  (* Distributed-trace context, all 0 when tracing is off: the trace id
     (inherited from the client's frame or freshly minted), the client's
     span id (the server span's parent), the pre-allocated id of this
     request's server span, and the admission timestamp in trace
     units. *)
  p_trace : int;
  p_span : int;
  p_req_span : int;
  admitted_us : float;
}

(* Partial catch-up snapshot being reassembled on a follower. *)
type snap_acc = { s_rev : int; s_total : int; s_buf : Buffer.t }

(* Snapshots larger than this are refused at reassembly — the follower
   trusts its configured leader but not unboundedly. *)
let max_snapshot_bytes = 256 * 1024 * 1024

(* Writer -> worker traffic: a freshly accepted client fd, or the
   encoded reply to a request the worker sent the writer. *)
type to_worker = Accepted of Unix.file_descr | Answer of conn * string

(* Worker -> writer traffic. [Request] carries writer-only work
   ([Wupdate], [Wensemble_stats], [Wpromote]) admitted by worker
   [wid]; its [p_conn] is an opaque routing token on the writer.
   [Adopt] hands over a connection whose Subscribe frame turns it into
   a replication stream, with its unparsed input and unflushed output.
   [Publish] asks the writer to publish a model a worker found on disk
   but missing from the snapshot. *)
type to_writer =
  | Request of int * pending
  | Adopt of {
      a_fd : Unix.file_descr;
      a_in : string;
      a_out : string list;
      a_out_off : int;
      a_id : int;
      a_vector : (Serving.Artifact.meta * int) list;
    }
  | Publish of Serving.Artifact.meta

(* Per-model slice of a worker's serving arena: the predictor's
   preallocated scratch plus growing output buffers for the fused
   means/stds. Keyed by (model meta, ensemble slot) so two ensemble
   members that happen to share a model never alias output storage. *)
type model_arena = {
  ma_scratch : Serving.Predictor.Scratch.t;
  mutable ma_means : float array;
  mutable ma_stds : float array;
}

(* One serving arena per worker — never shared, so the steady-state
   predict path reuses the same storage window after window with zero
   minor-heap float-array allocation. *)
type arena = {
  ar_fused : Linalg.Mat.t option ref;  (* fused-batch design buffer *)
  ar_models : (Serving.Artifact.meta * int, model_arena) Hashtbl.t;
}

let arena_create () = { ar_fused = ref None; ar_models = Hashtbl.create 8 }

type worker = {
  wid : int;
  mbox : to_worker Mbox.t;
  mutable conns : conn list;
  queue : pending Queue.t;  (* admitted reads awaiting their window *)
  mutable outstanding : int;  (* requests at the writer, reply not back *)
  depth : int Atomic.t;  (* queue + outstanding, read by the writer *)
  scratch : Bytes.t;  (* the worker's read buffer *)
  arena : arena;  (* fused buffer + predictor scratches *)
  mutable stopped_mono : float;  (* when this worker first saw stop *)
  mutable finished : bool;
  requests : Obs.Metrics.counter;
  queue_gauge : Obs.Metrics.gauge;
  conns_gauge : Obs.Metrics.gauge;
}

type t = {
  config : config;
  root : string;
  listen_fd : Unix.file_descr;
  addr : address;
  http_fd : Unix.file_descr option;
  http_addr : address option;  (* resolved (post-bind) scrape address *)
  stop_flag : bool Atomic.t;
  mutable accepting : bool;
  mutable conns : conn list;
      (* writer-owned: scrape peers, the leader link, subscribers *)
  served : int Atomic.t;  (* requests received, any outcome, any worker *)
  conn_count : int Atomic.t;  (* open connections across all domains *)
  scratch : Bytes.t;  (* the writer's read buffer *)
  started_mono : float;  (* monotonic, for uptime *)
  mutable stopped_mono : float;  (* monotonic instant [stop] was first seen *)
  journal : Serving.Journal.t;
  recovery : Serving.Recovery.report;  (* what [create] found and replayed *)
  ensembles : Ensemble.Manager.t;
      (* BMA ensembles over the store; mutated by the writer only,
         published through the manager's own atomic view so workers
         read the identical state (and thus derive identical weights) *)
  snapshot : Serving.Snapshot.t;
      (* the only model store: immutable published views, written by
         the writer at every commit, read lock-free by every worker *)
  writer_mbox : to_writer Mbox.t;
      (* its wake pipe also carries [stop] and worker-exit wake-ups *)
  workers : worker array;
  workers_live : int Atomic.t;  (* workers not yet drained *)
  mutable next_worker : int;  (* round-robin cursor for fd handoff *)
  (* --- replication --- *)
  leader : address option Atomic.t;
      (* [Some _] = follower of that leader; atomic so workers can answer
         Not_leader without consulting the writer *)
  commit_seq : int Atomic.t;
      (* leader: updates committed since start; follower: last leader
         sequence durably applied or subsumed by a snapshot. Written by
         the writer only; read from any domain (stats). *)
  source : conn Replication.Source.t;
  mutable link : conn option;  (* follower's connection to the leader *)
  mutable link_next_s : float;  (* monotonic: next connect attempt *)
  link_backoff : Replication.Backoff.t;
  snap : (Serving.Artifact.meta, snap_acc) Hashtbl.t;
  (* --- observability --- *)
  mutable last_status_s : float;
      (* monotonic instant of the last leader heartbeat broadcast *)
  mutable leader_seq : int;  (* follower: newest leader commit seq seen *)
  mutable last_apply_delay : float;
      (* follower: leader-commit-to-local-apply delay of the newest
         applied entry, seconds ([nan] until one applies) *)
  mutable catch_up_done : bool;
      (* follower: a Repl_status arrived on the current link, i.e. the
         initial snapshot/entry catch-up completed at least once *)
  model_apply : (Serving.Artifact.meta, int * float) Hashtbl.t;
      (* follower: per-model (last applied leader seq, apply delay s) *)
}

let address t = t.addr

let http_address t = t.http_addr

let role t =
  match Atomic.get t.leader with None -> `Leader | Some a -> `Follower a

let journal_seq t = Atomic.get t.commit_seq

let recovery t = t.recovery

let stopping t = Atomic.get t.stop_flag

let shard_count t = Array.length t.workers

(* Async-signal-safe: the wake byte is preallocated inside the mailbox,
   so this path allocates nothing in signal-handler context. *)
let stop t =
  if not (Atomic.exchange t.stop_flag true) then Mbox.wake t.writer_mbox

let install_signal_handlers t =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let h = Sys.Signal_handle (fun _ -> stop t) in
  Sys.set_signal Sys.sigterm h;
  Sys.set_signal Sys.sigint h

let sockaddr_of = function
  | Tcp (host, port) ->
      (Unix.PF_INET, Unix.ADDR_INET (Unix.inet_addr_of_string host, port))
  | Unix_socket path -> (Unix.PF_UNIX, Unix.ADDR_UNIX path)

(* Bind + listen on [addr], returning the fd and the resolved address
   (a requested TCP port 0 resolves to the kernel-assigned port). *)
let bind_listener addr =
  (match addr with
  | Unix_socket path when Sys.file_exists path -> Unix.unlink path
  | _ -> ());
  let domain, sockaddr = sockaddr_of addr in
  let fd = Unix.socket ~cloexec:true domain Unix.SOCK_STREAM 0 in
  (try
     (match addr with
     | Tcp _ -> Unix.setsockopt fd Unix.SO_REUSEADDR true
     | Unix_socket _ -> ());
     Unix.bind fd sockaddr;
     Unix.listen fd 128;
     Unix.set_nonblock fd
   with e ->
     Unix.close fd;
     raise e);
  let addr =
    match addr with
    | Unix_socket _ as a -> a
    | Tcp (host, _) -> (
        match Unix.getsockname fd with
        | Unix.ADDR_INET (_, port) -> Tcp (host, port)
        | _ -> addr)
  in
  (fd, addr)

let create ?(config = default_config) ?follow ~root addr =
  (* 0 is deliberately legal: an admin-only drain mode in which every
     predict/update answers Busy while ping/list_models/stats still
     work (and which lets tests exercise backpressure deterministically) *)
  if config.queue_capacity < 0 then
    invalid_arg "Daemon.create: negative queue capacity";
  if config.max_batch < 1 then invalid_arg "Daemon.create: max_batch < 1";
  if config.shards < 1 then invalid_arg "Daemon.create: shards < 1";
  if not (config.http_idle_s > 0.) then
    invalid_arg "Daemon.create: http_idle_s must be positive";
  (* recover BEFORE binding: sweep interrupted-save temps, verify every
     artifact checksum and replay any journal tail whose artifact save
     did not complete — the daemon never serves from an unverified
     store. The journal handle is opened only after recovery has
     consumed (or provably discarded) the previous incarnation's tail. *)
  let recovery =
    Serving.Recovery.recover ~durability:config.durability ~root ()
  in
  let journal =
    Serving.Journal.open_ ~durability:config.durability ~root ()
  in
  Obs.Events.emit "recovery"
    ~fields:
      [
        ("replayed", Obs.Trace.Int recovery.Serving.Recovery.replayed);
        ("discarded", Obs.Trace.Int recovery.Serving.Recovery.discarded);
        ( "corrupt",
          Obs.Trace.Int (List.length recovery.Serving.Recovery.corrupt) );
      ];
  let listen_fd, addr = bind_listener addr in
  let http_fd, http_addr =
    match config.http with
    | None -> (None, None)
    | Some haddr -> (
        match bind_listener haddr with
        | fd, resolved -> (Some fd, Some resolved)
        | exception e ->
            (try Unix.close listen_fd with Unix.Unix_error _ -> ());
            raise e)
  in
  let ensembles = Ensemble.Manager.create ~root in
  (match Ensemble.Manager.load_all ensembles with
  | [] -> ()
  | failed ->
      Obs.Events.emit "ensemble_load_failed"
        ~fields:[ ("files", Obs.Trace.Int (List.length failed)) ]);
  set_role_metric (match follow with None -> `Leader | Some _ -> `Follower);
  let workers =
    Array.init config.shards (fun wid ->
        {
          wid;
          mbox = Mbox.create ();
          conns = [];
          queue = Queue.create ();
          outstanding = 0;
          depth = Atomic.make 0;
          scratch = Bytes.create 65536;
          arena = arena_create ();
          stopped_mono = nan;
          finished = false;
          requests = shard_requests_counter wid;
          queue_gauge = shard_queue_gauge wid;
          conns_gauge = shard_conns_gauge wid;
        })
  in
  {
    config;
    root;
    listen_fd;
    addr;
    http_fd;
    http_addr;
    stop_flag = Atomic.make false;
    accepting = true;
    conns = [];
    served = Atomic.make 0;
    conn_count = Atomic.make 0;
    scratch = Bytes.create 65536;
    started_mono = Obs.Clock.now_s ();
    stopped_mono = nan;
    journal;
    recovery;
    ensembles;
    snapshot = Serving.Snapshot.create ();
    writer_mbox = Mbox.create ();
    workers;
    workers_live = Atomic.make config.shards;
    next_worker = 0;
    leader = Atomic.make follow;
    commit_seq = Atomic.make 0;
    source = Replication.Source.create ();
    link = None;
    link_next_s = 0.;  (* connect on the first loop tick *)
    link_backoff = Replication.Backoff.create ();
    snap = Hashtbl.create 4;
    last_status_s = 0.;
    leader_seq = 0;
    last_apply_delay = nan;
    catch_up_done = false;
    model_apply = Hashtbl.create 4;
  }

(* ------------------------------------------------------------------ *)
(* Model lookup over the published snapshot.                           *)

(* Writer only: the served entry for [meta], published from the store
   on a miss. *)
let writer_model t meta : (Serving.Snapshot.entry, Wire.error) result =
  match Serving.Snapshot.find (Serving.Snapshot.current t.snapshot) meta with
  | Some e -> Ok e
  | None -> (
      match Serving.Store.load ~root:t.root meta with
      | Error message -> Error { Wire.code = Wire.Model_not_found; message }
      | Ok artifact -> Ok (Serving.Snapshot.publish t.snapshot artifact))

let writer_predictor t meta =
  match writer_model t meta with
  | Ok e -> Some e.Serving.Snapshot.predictor
  | Error _ -> None

(* Writer only. Publish the fresh revision to every worker BEFORE the
   caller queues any acknowledgement: a client that sees the ack and
   immediately predicts on another worker must see this revision. *)
let publish t artifact = ignore (Serving.Snapshot.publish t.snapshot artifact)

(* Writer only: the update apply both roles run, the leader for a client
   [update] and the follower for a streamed journal entry. [base] is the
   published model at [entry]'s base revision. Raises when the commit
   is refused; by then the journal is rolled back and the stored
   revision is the published one. *)
let apply_update t (base : Serving.Snapshot.entry)
    (entry : Serving.Journal.entry) =
  let { Serving.Journal.meta; xs; f; _ } = entry in
  (* calibration scores the incoming observations against the
     PRE-update posterior (the model as it was when these samples
     arrived); a no-op unless metrics are on *)
  if Obs.Metrics.enabled () then
    Serving.Calibration.record_update ~predictor:base.Serving.Snapshot.predictor
      ~meta ~xs ~f;
  (* BMA evidence, phase 1 (pure): every ensemble containing this model
     scores the batch under its members' *pre-update* predictors —
     genuinely held-out density for the member about to absorb these
     samples, and the same data and models on every replica, so the
     accumulated evidence is identical on leader and followers *)
  let scored_ensembles =
    List.filter_map
      (fun s ->
        match
          Ensemble.Manager.score ~predictor_of:(writer_predictor t) s ~xs ~f
        with
        | s -> Some s
        | exception _ -> None)
      (Ensemble.Manager.containing t.ensembles meta)
  in
  let updated =
    match
      Serving.Update.commit ~durability:t.config.durability ~root:t.root
        t.journal base.Serving.Snapshot.artifact entry
    with
    | updated -> updated
    | exception e ->
        (* the commit can raise after its save landed (the directory
           fsync, the journal truncate): serve what the store holds, so
           the next base-revision check agrees with the disk that
           catch-up snapshots and a follower's subscribe vector read *)
        (match Serving.Store.load ~root:t.root meta with
        | Ok stored -> publish t stored
        | Error _ -> ());
        raise e
  in
  publish t updated;
  (* BMA evidence, phase 2: the update committed, so the scored
     ensemble states become durable and visible. A failed ensemble save
     must not fail the committed update. *)
  List.iter
    (fun s ->
      try Ensemble.Manager.commit t.ensembles ~durability:t.config.durability s
      with _ -> ())
    scored_ensembles;
  updated

(* ------------------------------------------------------------------ *)
(* Connection plumbing. Every conn is owned by one domain (the writer
   or one worker). [close_conn] closes the fd and marks the record;
   the owner prunes closed records from its list once per tick.        *)

let close_conn t conn =
  if not conn.closed then begin
    conn.closed <- true;
    (try Unix.close conn.fd with Unix.Unix_error _ -> ());
    Atomic.decr t.conn_count;
    Obs.Metrics.set g_connections (float_of_int (Atomic.get t.conn_count));
    match conn.peer with
    | Subscriber ->
        Obs.Events.emit "subscriber_drop"
          ~fields:[ ("commit_seq", Obs.Trace.Int (Atomic.get t.commit_seq)) ];
        Replication.Source.drop t.source conn;
        Replication.Source.note_lag t.source ~seq:(Atomic.get t.commit_seq)
    | Link | Link_pending ->
        (* leader gone (or refused us): discard any half-reassembled
           snapshot and schedule a backed-off reconnect; the fresh
           subscription's revision vector makes catch-up self-healing *)
        if conn.peer = Link then
          Obs.Events.emit "link_down"
            ~fields:[ ("commit_seq", Obs.Trace.Int (Atomic.get t.commit_seq)) ];
        if (match t.link with Some l -> l == conn | None -> false) then
          t.link <- None;
        Hashtbl.reset t.snap;
        t.link_next_s <-
          Obs.Clock.now_s () +. Replication.Backoff.next_delay_s t.link_backoff
    | Client | Http -> ()
  end

let send conn frame_bytes =
  if not conn.closed then begin
    Queue.add frame_bytes conn.out;
    conn.out_bytes <- conn.out_bytes + String.length frame_bytes
  end

let bad_request message = Wire.Error { Wire.code = Wire.Bad_request; message }

let internal_error e =
  Wire.Error { Wire.code = Wire.Internal; message = Printexc.to_string e }

let deadline_error =
  Wire.Error
    {
      Wire.code = Wire.Deadline_exceeded;
      message = "deadline expired before execution";
    }

(* Error accounting + framing for a response, on whichever domain
   produced it. *)
let encode_reply ~id resp =
  (match resp with
  | Wire.Error e ->
      Obs.Metrics.inc m_errors;
      (match e.Wire.code with
      | Wire.Busy -> Obs.Metrics.inc m_busy
      | Wire.Deadline_exceeded -> Obs.Metrics.inc m_deadline
      | _ -> ())
  | _ -> ());
  match Wire.encode_response ~id resp with
  | s -> s
  | exception _ ->
      (* the response itself could not be framed (e.g. a stats or
         models payload past max_frame_len): degrade to a small error
         frame rather than killing the loop *)
      Obs.Metrics.inc m_errors;
      Wire.encode_response ~id
        (Wire.Error
           {
             Wire.code = Wire.Internal;
             message = "response exceeded the frame size limit";
           })

let reply conn ~id resp = send conn (encode_reply ~id resp)

(* Flush as much queued output as the socket accepts right now. *)
let flush_conn t conn =
  let progress = ref true in
  (try
     while (not conn.closed) && !progress && not (Queue.is_empty conn.out) do
       let head = Queue.peek conn.out in
       let len = String.length head - conn.out_off in
       let n =
         Unix.single_write_substring conn.fd head conn.out_off len
       in
       if n = len then begin
         ignore (Queue.pop conn.out);
         conn.out_bytes <- conn.out_bytes - String.length head;
         conn.out_off <- 0
       end
       else begin
         conn.out_off <- conn.out_off + n;
         progress := false
       end
     done
   with
  | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  | Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET | Unix.EBADF), _, _) ->
      close_conn t conn);
  if (not conn.closed) && conn.close_after_flush && Queue.is_empty conn.out
  then close_conn t conn

(* ------------------------------------------------------------------ *)
(* Clock and admin payloads.                                           *)

(* Monotonic: admission stamps, deadline expiry, uptime and drain grace
   must not move when NTP steps the wall clock — a step backwards would
   freeze expiry, a step forwards would mass-expire every queued
   request. *)
let now_s () = Obs.Clock.now_s ()

let model_infos t =
  Serving.Store.list ~root:t.root
  |> List.filter_map (fun (e : Serving.Store.entry) ->
         match e.status with
         | Error _ -> None
         | Ok a ->
             Some
               {
                 Wire.meta = a.Serving.Artifact.meta;
                 rev = a.Serving.Artifact.rev;
                 samples = Serving.Artifact.num_samples a;
                 terms = Serving.Artifact.num_terms a;
                 dim = a.Serving.Artifact.basis_dim;
                 file = Filename.basename e.file;
                 bytes = e.bytes;
               })

(* Called from the writer and from shard domains: everything it reads
   is atomic, monotonic or internally synchronized. *)
let stats_payload t =
  Wire.Stats_payload
    {
      uptime_s = now_s () -. t.started_mono;
      requests = float_of_int (Atomic.get t.served);
      recovered_updates = float_of_int t.recovery.Serving.Recovery.replayed;
      role =
        (match Atomic.get t.leader with
        | None -> "leader"
        | Some _ -> "follower");
      journal_seq = Atomic.get t.commit_seq;
      shards = shard_count t;
      metrics_json = Obs.Metrics.to_json ();
    }

(* ------------------------------------------------------------------ *)
(* Replication: leader side.                                           *)

let store_artifacts t =
  Serving.Store.list ~root:t.root
  |> List.filter_map (fun (e : Serving.Store.entry) ->
         match e.status with Ok a -> Some a | Error _ -> None)

let not_leader_error t =
  let where =
    match Atomic.get t.leader with
    | Some leader -> address_to_string leader
    | None -> address_to_string t.addr
  in
  Wire.Error
    {
      Wire.code = Wire.Not_leader;
      message = "not the leader; updates are accepted at " ^ where;
    }

(* Turn a connection handed over by a worker into a subscriber: snapshot
   every model the follower is missing or behind on, then mark the
   stream live. All the frames are queued here and drip out through the
   ordinary flush path, so catch-up never blocks the loop. A refused
   subscription is answered and hung up. *)
let handle_subscribe t conn ~id vector =
  let refuse resp =
    reply conn ~id resp;
    conn.close_after_flush <- true
  in
  if Atomic.get t.leader <> None then refuse (not_leader_error t)
  else if stopping t then
    refuse
      (Wire.Error
         {
           Wire.code = Wire.Shutting_down;
           message = "server is draining; not accepting subscribers";
         })
  else begin
    let snapshots =
      Replication.Source.plan_catchup ~have:(store_artifacts t) ~vector
    in
    List.iter
      (fun (meta, rev, bytes) ->
        let total = String.length bytes in
        let rec chunks offset =
          if offset < total || total = 0 then begin
            let n = Stdlib.min Wire.max_snapshot_chunk (total - offset) in
            send conn
              (Wire.encode_push
                 (Wire.Snapshot_chunk
                    { meta; rev; total; offset; data = String.sub bytes offset n }));
            if n > 0 then chunks (offset + n)
          end
        in
        chunks 0;
        Replication.Source.note_snapshot ~bytes:total)
      snapshots;
    send conn
      (Wire.encode_push
         (Wire.Repl_status
            {
              seq = Atomic.get t.commit_seq;
              snapshots = List.length snapshots;
              ts = Obs.Clock.wall ();
            }));
    conn.peer <- Subscriber;
    Obs.Events.emit "subscriber_connect"
      ~fields:
        [
          ("snapshots", Obs.Trace.Int (List.length snapshots));
          ("commit_seq", Obs.Trace.Int (Atomic.get t.commit_seq));
        ];
    Replication.Source.register t.source conn ~acked:(Atomic.get t.commit_seq);
    Replication.Source.note_lag t.source ~seq:(Atomic.get t.commit_seq)
  end

(* Fan one committed update out to every live subscriber. A subscriber
   that stopped draining its socket is dropped rather than buffered
   without bound — on reconnect the revision vector routes it through
   snapshot catch-up, so nothing is lost. [trace] is the originating
   update's distributed-trace context: it rides the push header so the
   follower's apply span joins the client's trace. The commit wall
   timestamp rides the body and feeds the follower's lag gauge. *)
let ship_commit ?(trace = (0, 0)) t entry =
  Atomic.incr t.commit_seq;
  (match Replication.Source.subscribers t.source with
  | [] -> ()
  | subs -> (
      match
        Wire.encode_push ~trace
          (Wire.Journal_entry
             {
               seq = Atomic.get t.commit_seq;
               ts = Obs.Clock.wall ();
               entry = Serving.Journal.encode_entry entry;
             })
      with
      | exception _ ->
          (* unframeable entry (pathologically large update): force the
             subscribers through snapshot catch-up instead *)
          List.iter (fun c -> close_conn t c) subs
      | encoded ->
          let shipped = ref 0 in
          List.iter
            (fun c ->
              if c.out_bytes >= max_buffered_out then close_conn t c
              else begin
                send c encoded;
                incr shipped
              end)
            subs;
          Replication.Source.note_shipped ~entries:!shipped));
  Replication.Source.note_lag t.source ~seq:(Atomic.get t.commit_seq)

(* ------------------------------------------------------------------ *)
(* Request admission.                                                  *)

let queue_depth t =
  Array.fold_left (fun acc w -> acc + Atomic.get w.depth) 0 t.workers

let note_depth t w =
  let d = Queue.length w.queue + w.outstanding in
  Atomic.set w.depth d;
  Obs.Metrics.set w.queue_gauge (float_of_int d);
  Obs.Metrics.set g_queue_depth (float_of_int (queue_depth t))

(* The one admission path. Reads queue on the worker for the next
   window; writer-only work is sent to the writer and counts against
   the worker's capacity until its reply is back. [ensemble_stats] and
   [promote] are admin requests: never refused as Busy or draining. *)
let admit t w conn (frame : Wire.frame) work =
  let admin =
    match work with Wensemble_stats _ | Wpromote -> true | _ -> false
  in
  let refuse code message =
    reply conn ~id:frame.Wire.frame_id
      (Wire.Error { Wire.code = code; message })
  in
  if (not admin) && stopping t then
    refuse Wire.Shutting_down "server is draining; not accepting new work"
  else if
    (not admin)
    && Queue.length w.queue + w.outstanding >= t.config.queue_capacity
  then
    refuse Wire.Busy
      (Printf.sprintf "request queue full (capacity %d)"
         t.config.queue_capacity)
  else begin
    let admitted_s = now_s () in
    let expires_s =
      if frame.Wire.frame_deadline_ms <= 0 then infinity
      else admitted_s +. (float_of_int frame.Wire.frame_deadline_ms /. 1e3)
    in
    (* The client's trace context is kept (and later forwarded on the
       replication push) even when local tracing is off — an untraced
       relay must not break the client-to-follower trace. With tracing
       on, the server span's id is pre-allocated so the
       queue/kernel/reply children recorded before the request finishes
       can already name their parent, and an untraced client's request
       gets a freshly minted trace id. *)
    let p_span = frame.Wire.frame_span in
    let admitted_us, p_trace, p_req_span =
      if Obs.Trace.enabled () then
        ( Obs.Clock.now_us (),
          (if frame.Wire.frame_trace > 0 then frame.Wire.frame_trace
           else Obs.Trace.fresh_trace_id ()),
          Obs.Trace.alloc_id () )
      else (0., frame.Wire.frame_trace, 0)
    in
    let p =
      {
        p_conn = conn;
        p_id = frame.Wire.frame_id;
        admitted_s;
        admitted_mono = Obs.Clock.monotonic_raw ();
        expires_s;
        work;
        p_trace;
        p_span;
        p_req_span;
        admitted_us;
      }
    in
    conn.inflight <- conn.inflight + 1;
    (match work with
    | Wpredict _ | Wensemble _ -> Queue.add p w.queue
    | Wupdate _ | Wensemble_stats _ | Wpromote ->
        w.outstanding <- w.outstanding + 1;
        Mbox.push t.writer_mbox (Request (w.wid, p)));
    note_depth t w
  end

(* ------------------------------------------------------------------ *)
(* Incoming bytes -> frames (shared by every connection).              *)

let slurp t ~scratch conn =
  try
    let continue = ref true in
    while !continue && not conn.closed do
      match Unix.read conn.fd scratch 0 (Bytes.length scratch) with
      | 0 ->
          close_conn t conn;
          continue := false
      | n ->
          Buffer.add_subbytes conn.inbuf scratch 0 n;
          if n < Bytes.length scratch then continue := false
    done
  with
  | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  | Unix.Unix_error ((Unix.ECONNRESET | Unix.EBADF | Unix.EPIPE), _, _) ->
      close_conn t conn

(* Only flatten the buffer once enough bytes for the next frame are in
   — a dribbled large frame costs one copy, not one per read. Parsing
   stops after a Subscribe frame, with the remaining bytes preserved
   for the writer that takes the connection over. *)
let parse_frames conn ~dispatch ~on_bad =
  if (not conn.closed) && Buffer.length conn.inbuf >= conn.need then begin
    let data = Buffer.contents conn.inbuf in
    let off = ref 0 in
    let continue = ref true in
    while !continue do
      if conn.subscribe <> None then begin
        conn.need <- 4;
        continue := false
      end
      else
        match Wire.peek data ~off:!off with
        | `Frame (frame, next) ->
            off := next;
            if not (conn.closed || conn.close_after_flush) then
              dispatch conn frame
        | `Need k ->
            conn.need <- String.length data - !off + k;
            continue := false
        | `Bad message ->
            on_bad conn message;
            Buffer.clear conn.inbuf;
            conn.need <- 4;
            off := 0;
            continue := false
    done;
    if !off > 0 && not conn.closed then begin
      let rest = String.sub data !off (String.length data - !off) in
      Buffer.clear conn.inbuf;
      Buffer.add_string conn.inbuf rest
    end
  end

(* ------------------------------------------------------------------ *)
(* Replication: follower side. Frames arriving on the leader link are
   pushes (or an error frame); anything unexpected drops the link and
   the backed-off resubscribe heals via snapshot catch-up.             *)

let link_ack conn seq =
  send conn (Wire.encode_request ~id:0 (Wire.Repl_ack_req { seq }))

let note_follower_lag t =
  Obs.Metrics.set g_follower_lag_entries
    (float_of_int (max 0 (t.leader_seq - Atomic.get t.commit_seq)))

let apply_snapshot_chunk t conn ~meta ~rev ~total ~offset ~data =
  if total > max_snapshot_bytes then close_conn t conn
  else begin
    let acc =
      match Hashtbl.find_opt t.snap meta with
      | Some a
        when a.s_rev = rev && a.s_total = total
             && Buffer.length a.s_buf = offset ->
          Some a
      | Some _ -> None (* inconsistent with the transfer in progress *)
      | None when offset = 0 ->
          let a =
            { s_rev = rev; s_total = total; s_buf = Buffer.create (max total 16) }
          in
          Hashtbl.replace t.snap meta a;
          Some a
      | None -> None
    in
    match acc with
    | None -> close_conn t conn
    | Some a ->
        Buffer.add_string a.s_buf data;
        if Buffer.length a.s_buf >= a.s_total then begin
          Hashtbl.remove t.snap meta;
          match
            Replication.Apply.snapshot ~durability:t.config.durability
              ~root:t.root (Buffer.contents a.s_buf)
          with
          | Error _ -> close_conn t conn
          | Ok art ->
              Obs.Events.emit "snapshot_install"
                ~fields:
                  [
                    ( "model",
                      Obs.Trace.Str (Serving.Calibration.model_label meta) );
                    ("rev", Obs.Trace.Int art.Serving.Artifact.rev);
                    ("bytes", Obs.Trace.Int a.s_total);
                  ];
              publish t art
        end
  end

(* One streamed journal entry, applied through the same [apply_update]
   as a leader update. A duplicate is acked without applying again; a
   revision gap or a refused apply drops the link, and the backed-off
   resubscribe repairs it by snapshot catch-up. *)
let apply_streamed_entry t conn (frame : Wire.frame) ~seq ~ts entry =
  let ack () =
    if seq > t.leader_seq then t.leader_seq <- seq;
    note_follower_lag t;
    link_ack conn seq
  in
  match Serving.Journal.decode_entry entry with
  | Error _ -> close_conn t conn
  | Ok e -> (
      match writer_model t e.Serving.Journal.meta with
      | Error _ -> close_conn t conn (* no base artifact: a gap *)
      | Ok base -> (
          match
            Serving.Update.rule
              ~rev:base.Serving.Snapshot.artifact.Serving.Artifact.rev e
          with
          | Serving.Update.Gap -> close_conn t conn
          | Serving.Update.Stale ->
              (* a duplicate after a snapshot or replay: already in *)
              Obs.Metrics.inc m_repl_stale;
              if seq > Atomic.get t.commit_seq then Atomic.set t.commit_seq seq;
              ack ()
          | Serving.Update.Apply -> (
              let apply_t0 =
                if Obs.Trace.enabled () then Obs.Clock.now_us () else 0.
              in
              match
                Obs.Metrics.time m_repl_apply_seconds (fun () ->
                    apply_update t base e)
              with
              | exception _ -> close_conn t conn
              | _ ->
                  Obs.Metrics.inc m_repl_applied;
                  Atomic.set t.commit_seq seq;
                  (* lag in seconds: leader commit wall time -> local apply *)
                  let delay =
                    if ts > 0. then Obs.Clock.wall () -. ts else nan
                  in
                  t.last_apply_delay <- delay;
                  Hashtbl.replace t.model_apply e.Serving.Journal.meta
                    (seq, delay);
                  if Float.is_finite delay then
                    Obs.Metrics.set g_apply_delay delay;
                  (* the apply span joins the originating update's trace:
                     the push header carried the leader's server-span id *)
                  if Obs.Trace.enabled () then
                    Obs.Trace.complete ~cat:"repl"
                      ~trace:frame.Wire.frame_trace
                      ~parent:frame.Wire.frame_span
                      ~attrs:[ ("seq", Obs.Trace.Int seq) ]
                      ~start_us:apply_t0
                      ~dur_us:(Obs.Clock.now_us () -. apply_t0)
                      "repl_apply";
                  ack ())))

let on_link_frame t conn (frame : Wire.frame) =
  if not (Wire.is_push_kind frame.Wire.frame_kind) then
    (* only error frames are legal here (e.g. Not_leader from a peer
       that is itself a follower): drop and retry through the backoff *)
    close_conn t conn
  else
    match Wire.decode_push frame with
    | Error _ -> close_conn t conn
    | Ok (Wire.Snapshot_chunk { meta; rev; total; offset; data }) ->
        apply_snapshot_chunk t conn ~meta ~rev ~total ~offset ~data
    | Ok (Wire.Journal_entry { seq; ts; entry }) ->
        apply_streamed_entry t conn frame ~seq ~ts entry
    | Ok (Wire.Repl_status { seq; snapshots = _; ts = _ }) ->
        (* catch-up complete: the snapshots embody every commit <= seq *)
        if seq > Atomic.get t.commit_seq then Atomic.set t.commit_seq seq;
        if seq > t.leader_seq then t.leader_seq <- seq;
        t.catch_up_done <- true;
        note_follower_lag t;
        link_ack conn seq
    | Ok (Wire.Repl_heartbeat { seq; ts = _ }) ->
        (* liveness only: a heartbeat promises nothing about shipping,
           so it refreshes the lag gauges but is never acked and never
           advances the applied sequence *)
        if seq > t.leader_seq then t.leader_seq <- seq;
        note_follower_lag t

(* ------------------------------------------------------------------ *)
(* Request dispatch.                                                   *)

(* Writer-only: answering an ensemble stats query re-reads the [.bmfe]
   definitions from disk first, so a live daemon picks up
   [repro ensemble create/add] run against its store directory — the
   canary registration path. *)
let ensemble_stats_payload t name : Wire.response =
  let resolve meta =
    match Serving.Store.load ~root:t.root meta with
    | Ok a -> Some (a.Serving.Artifact.rev, a.Serving.Artifact.basis_dim)
    | Error _ -> None
  in
  if name = "" then begin
    ignore (Ensemble.Manager.load_all t.ensembles);
    Wire.Ensemble_stats_payload
      {
        json =
          Serving.Json.to_string
            (Serving.Json.Arr
               (List.map
                  (Ensemble.State.to_json ~resolve)
                  (Ensemble.Manager.list t.ensembles)));
      }
  end
  else
    match Ensemble.Manager.reload t.ensembles name with
    | Ok state ->
        Wire.Ensemble_stats_payload
          { json = Serving.Json.to_string (Ensemble.State.to_json ~resolve state) }
    | Error message -> Wire.Error { Wire.code = Wire.Model_not_found; message }

(* The one frame dispatch, run by the worker that owns [conn]. *)
let on_frame t w conn (frame : Wire.frame) =
  Atomic.incr t.served;
  Obs.Metrics.inc m_requests;
  Obs.Metrics.inc w.requests;
  let id = frame.Wire.frame_id in
  let decode_t0 =
    if Obs.Trace.enabled () && frame.Wire.frame_trace > 0 then
      Obs.Clock.now_us ()
    else 0.
  in
  let decoded = Wire.decode_request frame in
  if decode_t0 > 0. then
    Obs.Trace.complete ~cat:"server" ~trace:frame.Wire.frame_trace
      ~parent:frame.Wire.frame_span ~start_us:decode_t0
      ~dur_us:(Obs.Clock.now_us () -. decode_t0)
      "srv_decode";
  let admin resp =
    Obs.Metrics.time h_admin (fun () -> reply conn ~id (resp ()))
  in
  let refuse_rows rows limit op =
    reply conn ~id
      (bad_request
         (Printf.sprintf
            "batch of %d points exceeds the %d-point response limit for %s"
            rows limit op))
  in
  match decoded with
  | Error message ->
      (* not speaking our dialect: answer once, then hang up *)
      reply conn ~id (Wire.Error { Wire.code = Wire.Protocol; message });
      conn.close_after_flush <- true
  | Ok req -> (
      match req with
      | Wire.Ping_req -> admin (fun () -> Wire.Pong)
      | Wire.Stats_req -> admin (fun () -> stats_payload t)
      | Wire.List_models_req -> admin (fun () -> Wire.Models (model_infos t))
      | Wire.Events_req ->
          admin (fun () -> Wire.Events_payload { json = Obs.Events.to_json () })
      | Wire.Predict_req { meta; points; with_std } ->
          (* bound at admission so the response is guaranteed to frame *)
          let rows = Linalg.Mat.rows points in
          let limit = Wire.max_predict_rows ~with_std in
          if rows > limit then
            refuse_rows rows limit
              (Wire.opcode_name
                 (if with_std then Wire.Predict_var else Wire.Predict))
          else admit t w conn frame (Wpredict { meta; points; with_std })
      | Wire.Predict_ensemble_req { name; points } ->
          let rows = Linalg.Mat.rows points in
          if rows > Wire.max_ensemble_rows then
            refuse_rows rows Wire.max_ensemble_rows "predict_ensemble"
          else admit t w conn frame (Wensemble { name; points })
      | Wire.Update_req { meta; xs; f } ->
          if Atomic.get t.leader <> None then
            reply conn ~id (not_leader_error t)
          else admit t w conn frame (Wupdate { meta; xs; f })
      | Wire.Ensemble_stats_req { name } ->
          admit t w conn frame (Wensemble_stats name)
      | Wire.Promote_req -> admit t w conn frame Wpromote
      | Wire.Subscribe_req { vector } -> conn.subscribe <- Some (id, vector)
      | Wire.Repl_ack_req _ -> () (* only meaningful on a subscriber *))

(* ------------------------------------------------------------------ *)
(* Scrape endpoint: a minimal HTTP/1.1 responder for GET /metrics,
   /health, /healthz, /ready and /events, served from the same select
   loop as the wire protocol — no threads, no parser beyond the request
   line. Every response closes the connection.                         *)

let http_request_limit = 8192

let http_response ~status ~content_type body =
  Printf.sprintf
    "HTTP/1.1 %s\r\nContent-Type: %s\r\nContent-Length: %d\r\nConnection: \
     close\r\n\r\n%s"
    status content_type (String.length body) body

(* Readiness: a leader is ready the moment it serves (recovery completed
   in [create]); a follower is ready once the current link's catch-up
   finished, i.e. it has seen a [Repl_status] and is applying live. *)
let is_ready t =
  match Atomic.get t.leader with
  | None -> not (stopping t)
  | Some _ -> (not (stopping t)) && t.catch_up_done && t.link <> None

let health_json t =
  let module J = Serving.Json in
  let int i = J.Num (float_of_int i) in
  let num f = if Float.is_finite f then J.Num f else J.Null in
  let models =
    Hashtbl.fold
      (fun meta (seq, delay) acc ->
        J.Obj
          [
            ("model", J.Str (Serving.Calibration.model_label meta));
            ("applied_seq", int seq);
            ("lag_entries", int (max 0 (t.leader_seq - seq)));
            ("lag_seconds", num delay);
          ]
        :: acc)
      t.model_apply []
  in
  let recovery = t.recovery in
  J.to_string
    (J.Obj
       [
         ( "role",
           J.Str
             (match Atomic.get t.leader with
             | None -> "leader"
             | Some _ -> "follower") );
         ("ready", J.Bool (is_ready t));
         ("uptime_s", num (now_s () -. t.started_mono));
         ("shards", int (shard_count t));
         ("queue_depth", int (queue_depth t));
         ("connections", int (Atomic.get t.conn_count));
         ("commit_seq", int (Atomic.get t.commit_seq));
         ("leader_seq", int t.leader_seq);
         ( "repl_lag_entries",
           int (max 0 (t.leader_seq - Atomic.get t.commit_seq)) );
         ("repl_lag_seconds", num t.last_apply_delay);
         ( "recovery",
           J.Obj
             [
               ("replayed", int recovery.Serving.Recovery.replayed);
               ("discarded", int recovery.Serving.Recovery.discarded);
               ("corrupt", int (List.length recovery.Serving.Recovery.corrupt));
             ] );
         ( "ensembles",
           J.Arr
             (List.map
                (fun s -> Ensemble.State.to_json s)
                (Ensemble.Manager.list t.ensembles)) );
         ("models", J.Arr models);
       ])

let http_route t request_line =
  match String.split_on_char ' ' request_line with
  | meth :: target :: _ -> (
      if meth <> "GET" then
        http_response ~status:"405 Method Not Allowed"
          ~content_type:"text/plain" "only GET is supported\n"
      else
        let path =
          match String.index_opt target '?' with
          | Some i -> String.sub target 0 i
          | None -> target
        in
        match path with
        | "/metrics" ->
            http_response ~status:"200 OK"
              ~content_type:"text/plain; version=0.0.4; charset=utf-8"
              (Obs.Metrics.to_prometheus ())
        | "/health" | "/healthz" ->
            http_response ~status:"200 OK" ~content_type:"application/json"
              (health_json t)
        | "/ready" ->
            http_response
              ~status:
                (if is_ready t then "200 OK" else "503 Service Unavailable")
              ~content_type:"application/json" (health_json t)
        | "/events" ->
            http_response ~status:"200 OK" ~content_type:"application/json"
              (Obs.Events.to_json ())
        | _ ->
            http_response ~status:"404 Not Found" ~content_type:"text/plain"
              "not found\n")
  | _ ->
      http_response ~status:"400 Bad Request" ~content_type:"text/plain"
        "bad request\n"

(* Serve one request per connection: wait for the blank line ending the
   headers, answer, flush, close. Headers past [http_request_limit]
   bytes are refused — a scrape request fits in a fraction of that. *)
let handle_http t conn =
  let data = Buffer.contents conn.inbuf in
  let have_headers =
    let len = String.length data in
    let rec scan i =
      if i + 3 < len then
        if
          data.[i] = '\r' && data.[i + 1] = '\n' && data.[i + 2] = '\r'
          && data.[i + 3] = '\n'
        then true
        else if data.[i] = '\n' && data.[i + 1] = '\n' then true
        else scan (i + 1)
      else if i + 1 < len then data.[i] = '\n' && data.[i + 1] = '\n'
      else false
    in
    scan 0
  in
  if have_headers then begin
    Obs.Metrics.inc m_http_requests;
    let request_line =
      match String.index_opt data '\n' with
      | Some i ->
          let l = String.sub data 0 i in
          if l <> "" && l.[String.length l - 1] = '\r' then
            String.sub l 0 (String.length l - 1)
          else l
      | None -> data
    in
    send conn
      (match http_route t request_line with
      | s -> s
      | exception _ ->
          http_response ~status:"500 Internal Server Error"
            ~content_type:"text/plain" "internal error\n");
    conn.close_after_flush <- true
  end
  else if String.length data > http_request_limit then begin
    send conn
      (http_response ~status:"431 Request Header Fields Too Large"
         ~content_type:"text/plain" "request too large\n");
    conn.close_after_flush <- true
  end

(* ------------------------------------------------------------------ *)
(* The read path, shared by every connection. [dispatch] serves a wire
   frame on a client or subscriber connection; the leader link and
   scrape peers have their own handlers.                               *)

let parse_conn t ~dispatch conn =
  match conn.peer with
  | Http -> if not conn.closed then handle_http t conn
  | Link_pending -> () (* nothing to parse until the connect completes *)
  | Link ->
      parse_frames conn
        ~dispatch:(fun c frame ->
          try on_link_frame t c frame with _ -> close_conn t c)
        ~on_bad:(fun c _ -> close_conn t c)
  | Client | Subscriber ->
      parse_frames conn
        ~dispatch:(fun c frame ->
          (* crash containment: no single request may kill the loop *)
          try dispatch c frame
          with e ->
            reply c ~id:frame.Wire.frame_id (internal_error e);
            c.close_after_flush <- true)
        ~on_bad:(fun c message ->
          reply c ~id:0 (Wire.Error { Wire.code = Wire.Protocol; message });
          c.close_after_flush <- true)

let read_conn t ~scratch ~dispatch conn =
  slurp t ~scratch conn;
  parse_conn t ~dispatch conn

(* Descriptors a loop selects on for its connections (closed ones
   await pruning): a conn is read unless it is closing, waiting to move
   to the writer, or has too much output queued; it is written while
   output is queued (or, for the leader link, while the connect is in
   flight). *)
let read_fds conns =
  List.filter_map
    (fun c ->
      if c.closed || c.close_after_flush || c.subscribe <> None
         || c.out_bytes >= max_buffered_out
      then None
      else Some c.fd)
    conns

let write_fds conns =
  List.filter_map
    (fun c ->
      if (not c.closed) && (c.peer = Link_pending || not (Queue.is_empty c.out))
      then Some c.fd
      else None)
    conns

let mk_conn ~peer ~read_deadline_s fd =
  {
    fd;
    inbuf = Buffer.create 4096;
    need = 4;
    out = Queue.create ();
    out_bytes = 0;
    out_off = 0;
    close_after_flush = false;
    closed = false;
    peer;
    read_deadline_s;
    inflight = 0;
    subscribe = None;
  }

(* Client connections are dealt round-robin to the workers and live
   their whole life there; scrape connections stay on the writer. *)
let accept_loop ?(peer = Client) t lfd =
  let continue = ref true in
  while !continue do
    match Unix.accept ~cloexec:true lfd with
    | fd, _ ->
        Unix.set_nonblock fd;
        Obs.Metrics.inc m_connections;
        Atomic.incr t.conn_count;
        Obs.Metrics.set g_connections (float_of_int (Atomic.get t.conn_count));
        if peer = Client then begin
          let w = t.workers.(t.next_worker mod Array.length t.workers) in
          t.next_worker <- t.next_worker + 1;
          Mbox.push w.mbox (Accepted fd)
        end
        else
          (* scrape peers must complete a request promptly or vacate
             the slot; wire peers may idle between requests *)
          t.conns <-
            mk_conn ~peer ~read_deadline_s:(now_s () +. t.config.http_idle_s) fd
            :: t.conns
    | exception
        Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      ->
        continue := false
    | exception Unix.Unix_error (_, _, _) -> continue := false
  done

(* ------------------------------------------------------------------ *)
(* Micro-batch execution.                                              *)

let opcode_histogram = function
  | Wpredict { with_std = false; _ } -> h_predict
  | Wpredict { with_std = true; _ } -> h_predict_var
  | Wupdate _ -> h_update
  | Wensemble _ -> h_ensemble
  | Wensemble_stats _ | Wpromote -> h_admin

let work_name = function
  | Wpredict { with_std = false; _ } -> "predict"
  | Wpredict { with_std = true; _ } -> "predict_var"
  | Wupdate _ -> "update"
  | Wensemble _ -> "predict_ensemble"
  | Wensemble_stats _ -> "ensemble_stats"
  | Wpromote -> "promote"

(* Account, trace and frame one admitted request's response, on
   whichever domain served it; only the owning worker queues the
   frame on the connection. *)
let complete (p : pending) resp =
  let done_s = now_s () in
  Obs.Metrics.observe (opcode_histogram p.work) (done_s -. p.admitted_s);
  let frame =
    if Obs.Trace.enabled () && p.p_req_span > 0 then begin
      let r0 = Obs.Clock.now_us () in
      let frame = encode_reply ~id:p.p_id resp in
      let r1 = Obs.Clock.now_us () in
      Obs.Trace.complete ~cat:"server" ~trace:p.p_trace ~parent:p.p_req_span
        ~start_us:r0 ~dur_us:(r1 -. r0) "srv_reply";
      (* the whole request, admission to reply, child of the client span *)
      Obs.Trace.complete ~cat:"server" ~trace:p.p_trace ~parent:p.p_span
        ~id:p.p_req_span
        ~attrs:[ ("op", Obs.Trace.Str (work_name p.work)) ]
        ~start_us:p.admitted_us
        ~dur_us:(Float.max 0. (r1 -. p.admitted_us))
        "srv_request";
      frame
    end
    else encode_reply ~id:p.p_id resp
  in
  if
    Obs.Events.enabled ()
    && done_s -. p.admitted_s > slow_request_s
  then
    Obs.Events.emit "slow_request"
      ~fields:
        [
          ("op", Obs.Trace.Str (work_name p.work));
          ("id", Obs.Trace.Int p.p_id);
          ("seconds", Obs.Trace.Float (done_s -. p.admitted_s));
        ];
  frame

(* Worker side: answer a queued request on its connection. *)
let finish (p : pending) resp =
  p.p_conn.inflight <- p.p_conn.inflight - 1;
  send p.p_conn (complete p resp)

(* Queue span: admission to execution start, per request. *)
let trace_queued (p : pending) ~start_us =
  if p.p_req_span > 0 then
    Obs.Trace.complete ~cat:"server" ~trace:p.p_trace ~parent:p.p_req_span
      ~start_us:p.admitted_us
      ~dur_us:(Float.max 0. (start_us -. p.admitted_us))
      "srv_queue"

(* The fused design-matrix buffer is reused across windows when the
   shape repeats (the steady state under load): every cell is
   overwritten by the member blits before the kernel runs, so reuse
   cannot change a bit of any answer. One slot per executor domain. *)
let fused_buffer slot total dim =
  match !slot with
  | Some (m : Linalg.Mat.t)
    when m.Linalg.Mat.rows = total && m.Linalg.Mat.cols = dim ->
      m
  | _ ->
      let m = Linalg.Mat.create total dim in
      slot := Some m;
      m

(* The per-model arena slice for this executor: reused while the cached
   scratch still belongs to the live predictor, rebuilt on model swap
   (physical identity — a republished model always gets fresh state).
   Output buffers grow geometrically and are handed to the re-split
   code, which copies each member's slice out ([Array.sub]), so reuse
   across windows cannot alias a response. *)
let model_arena arena ~meta ~slot predictor total =
  let key = (meta, slot) in
  let ma =
    match Hashtbl.find_opt arena.ar_models key with
    | Some ma
      when Serving.Predictor.Scratch.for_predictor ma.ma_scratch predictor ->
        ma
    | _ ->
        let ma =
          {
            ma_scratch =
              Serving.Predictor.Scratch.create
                ~capacity:(Stdlib.max 64 total)
                predictor;
            ma_means = [||];
            ma_stds = [||];
          }
        in
        Hashtbl.replace arena.ar_models key ma;
        ma
  in
  if Array.length ma.ma_means < total then begin
    let n = ref (Stdlib.max 64 (Array.length ma.ma_means)) in
    while !n < total do
      n := 2 * !n
    done;
    ma.ma_means <- Array.make !n 0.;
    ma.ma_stds <- Array.make !n 0.
  end;
  ma

(* Lock-free model lookup against the published snapshot. A model that
   exists on disk but is not yet published (e.g. saved after this
   daemon started) is served from a locally built predictor while the
   writer is asked to publish it for every worker. *)
let worker_predictor t meta : (Serving.Predictor.t, Wire.error) result =
  match Serving.Snapshot.find (Serving.Snapshot.current t.snapshot) meta with
  | Some e -> Ok e.Serving.Snapshot.predictor
  | None -> (
      match Serving.Store.load ~root:t.root meta with
      | Error message -> Error { Wire.code = Wire.Model_not_found; message }
      | Ok artifact ->
          Mbox.push t.writer_mbox (Publish meta);
          Ok (Serving.Predictor.of_artifact artifact))

(* Batching and fusing shared by model and ensemble groups. Requests
   whose dimensionality does not match [dim] are answered individually
   ([label] names the target); the rest fuse into blocked kernel calls
   of at most [max_batch] points, split only at request boundaries so
   the re-split is trivial and the answers bit-identical. [kernel fused
   total] runs one fused call and returns the answer for the [rows]
   request rows starting at fused row [at]; a zero-row batch gets
   [empty]. *)
let run_fused t ~arena ~dim ~label ~empty ~kernel members =
  let ok, bad =
    List.partition
      (fun (_, (points : Linalg.Mat.t)) -> Linalg.Mat.cols points = dim)
      members
  in
  List.iter
    (fun (p, (points : Linalg.Mat.t)) ->
      finish p
        (bad_request
           (Printf.sprintf
              "%s: query dimension mismatch: expected %d variables, got %d"
              label dim (Linalg.Mat.cols points))))
    bad;
  (* greedy sub-batches bounded by max_batch points *)
  let rec batches acc cur cur_rows = function
    | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
    | ((_, points) as m) :: rest ->
        let r = Linalg.Mat.rows points in
        if cur <> [] && cur_rows + r > t.config.max_batch then
          batches (List.rev cur :: acc) [ m ] r rest
        else batches acc (m :: cur) (cur_rows + r) rest
  in
  List.iter
    (fun batch ->
      let total =
        List.fold_left (fun acc (_, p) -> acc + Linalg.Mat.rows p) 0 batch
      in
      if total = 0 then List.iter (fun (p, _) -> finish p empty) batch
      else begin
        let fused = fused_buffer arena.ar_fused total dim in
        let at = ref 0 in
        List.iter
          (fun (_, (points : Linalg.Mat.t)) ->
            Linalg.Mat.blit_rows ~src:points ~dst:fused ~dst_row:!at;
            at := !at + Linalg.Mat.rows points)
          batch;
        Obs.Metrics.inc m_microbatches;
        Obs.Metrics.set g_batch_points (float_of_int total);
        let k0 = if Obs.Trace.enabled () then Obs.Clock.now_us () else 0. in
        match kernel fused total with
        | exception e ->
            List.iter (fun (p, _) -> finish p (internal_error e)) batch
        | answer ->
            (* each member's trace shows the shared fused-kernel window
               it rode in (same interval, own parent) *)
            (if Obs.Trace.enabled () then
               let k1 = Obs.Clock.now_us () in
               List.iter
                 (fun (p, _) ->
                   if p.p_req_span > 0 then
                     Obs.Trace.complete ~cat:"server" ~trace:p.p_trace
                       ~parent:p.p_req_span
                       ~attrs:[ ("points", Obs.Trace.Int total) ]
                       ~start_us:k0 ~dur_us:(k1 -. k0) "srv_kernel")
                 batch);
            let at = ref 0 in
            List.iter
              (fun (p, (points : Linalg.Mat.t)) ->
                let rows = Linalg.Mat.rows points in
                finish p
                  (try answer ~at:!at ~rows with e -> internal_error e);
                at := !at + rows)
              batch
      end)
    (batches [] [] 0 ok)

(* One group = same model, same opcode, one allocation-free kernel
   call per fused batch into this worker's arena; the [_into] twins are
   bit-identical to the allocating calls they replace, and the re-split
   copies each request's slice out before the buffers are reused. *)
let run_predict_group t ~arena meta with_std members =
  match worker_predictor t meta with
  | Error e -> List.iter (fun (p, _) -> finish p (Wire.Error e)) members
  | Ok predictor ->
      run_fused t ~arena
        ~dim:(Polybasis.Basis.dim (Serving.Predictor.basis predictor))
        ~label:
          (Printf.sprintf "model %s/%s" meta.Serving.Artifact.circuit
             meta.Serving.Artifact.metric)
        ~empty:
          (Wire.Predicted
             { means = [||]; stds = (if with_std then Some [||] else None) })
        ~kernel:(fun fused total ->
          let ma = model_arena arena ~meta ~slot:0 predictor total in
          if with_std then
            Serving.Predictor.predict_with_std_into predictor
              ~scratch:ma.ma_scratch fused ~means:ma.ma_means ~stds:ma.ma_stds
          else
            Serving.Predictor.predict_into predictor ~scratch:ma.ma_scratch
              fused ~means:ma.ma_means;
          fun ~at ~rows ->
            let sub arr = Array.sub arr at rows in
            Wire.Predicted
              {
                means = sub ma.ma_means;
                stds = (if with_std then Some (sub ma.ma_stds) else None);
              })
        members

(* One group = same ensemble. The weight vector and member set come
   from the published state (identical on every worker), each
   positive-weight member's kernel runs once over the requests' fused
   rows, and the per-request re-split feeds
   [Ensemble.Predictor.combine] — whose row-wise fold makes the result
   bit-identical to a direct member-by-member computation at any shard
   count or pool width. *)
let run_ensemble_group t ~arena name members =
  let fail_all resp = List.iter (fun (p, _) -> finish p resp) members in
  match Ensemble.Manager.find t.ensembles name with
  | None ->
      fail_all
        (Wire.Error
           {
             Wire.code = Wire.Model_not_found;
             message = Printf.sprintf "ensemble: no ensemble %S loaded" name;
           })
  | Some state -> (
      let n = Array.length state.Ensemble.State.members in
      let weights = Ensemble.State.weights state in
      let meta_of i =
        state.Ensemble.State.members.(i).Ensemble.State.meta
      in
      let first_err = ref None in
      (* resolve every positive-weight member's predictor up front; a
         missing member fails the whole group (a partial ensemble would
         answer with silently re-normalized weights) *)
      let preds =
        Array.init n (fun i ->
            if weights.(i) > 0. && !first_err = None then
              match worker_predictor t (meta_of i) with
              | Ok p -> Some p
              | Error e ->
                  first_err := Some e;
                  None
            else None)
      in
      let dim =
        Array.fold_left
          (fun acc p ->
            match (acc, p) with
            | None, Some p ->
                Some (Polybasis.Basis.dim (Serving.Predictor.basis p))
            | _ -> acc)
          None preds
      in
      match (!first_err, dim) with
      | Some e, _ -> fail_all (Wire.Error e)
      | None, None ->
          fail_all
            (bad_request
               (Printf.sprintf "ensemble %S has no active member" name))
      | None, Some dim ->
          run_fused t ~arena ~dim
            ~label:(Printf.sprintf "ensemble %S" name)
            ~empty:
              (Wire.Ensemble_predicted
                 { means = [||]; within = [||]; between = [||] })
            ~kernel:(fun fused total ->
              (* each member slot gets its own arena slice
                 ([slot = i + 1]) so members sharing a model can never
                 alias output buffers *)
              let member_out =
                Array.mapi
                  (fun i -> function
                    | None -> ([||], [||])
                    | Some p ->
                        let ma =
                          model_arena arena ~meta:(meta_of i) ~slot:(i + 1) p
                            total
                        in
                        Serving.Predictor.predict_with_std_into p
                          ~scratch:ma.ma_scratch fused ~means:ma.ma_means
                          ~stds:ma.ma_stds;
                        (ma.ma_means, ma.ma_stds))
                  preds
              in
              fun ~at ~rows ->
                (* inactive members carry empty arrays and are never
                   read by [combine] *)
                let sub (arr : float array) =
                  if Array.length arr = 0 then [||] else Array.sub arr at rows
                in
                let mu, within, between =
                  Ensemble.Predictor.combine ~weights
                    ~means:(Array.map (fun (m, _) -> sub m) member_out)
                    ~stds:(Array.map (fun (_, s) -> sub s) member_out)
                in
                Wire.Ensemble_predicted { means = mu; within; between })
            members)

(* The leader's update: build the journal entry on the published base
   revision, run the shared apply (journal append -> incremental fold
   -> durable save -> journal truncate -> snapshot publish), then ship
   the entry to subscribers. Returns the response; the caller frames
   it. The push carries [p]'s trace context and [p]'s server span
   parents the kernel span. *)
let commit_update t (p : pending) meta xs f : Wire.response =
  match writer_model t meta with
  | Error e -> Wire.Error e
  | Ok base -> (
      let predictor = base.Serving.Snapshot.predictor in
      let dim = Polybasis.Basis.dim (Serving.Predictor.basis predictor) in
      if Linalg.Mat.cols xs <> dim then
        bad_request
          (Printf.sprintf
             "model %s/%s: update dimension mismatch: expected %d \
              variables, got %d"
             meta.Serving.Artifact.circuit meta.Serving.Artifact.metric dim
             (Linalg.Mat.cols xs))
      else
        let entry =
          {
            Serving.Journal.meta;
            base_rev = base.Serving.Snapshot.artifact.Serving.Artifact.rev;
            xs;
            f;
          }
        in
        let k0 = if Obs.Trace.enabled () then Obs.Clock.now_us () else 0. in
        match apply_update t base entry with
        | exception e -> internal_error e
        | updated ->
            if Obs.Trace.enabled () && p.p_req_span > 0 then
              Obs.Trace.complete ~cat:"server" ~trace:p.p_trace
                ~parent:p.p_req_span
                ~attrs:[ ("rev", Obs.Trace.Int updated.Serving.Artifact.rev) ]
                ~start_us:k0
                ~dur_us:(Obs.Clock.now_us () -. k0)
                "srv_kernel";
            (* the commit is durable and published: ship it to
               subscribers before the acknowledgement is even queued.
               The push carries this update's trace context (the server
               span when tracing is on, the client's own context when
               relaying untraced) so the follower's apply joins the
               same trace. *)
            ship_commit
              ~trace:
                (p.p_trace, if p.p_req_span > 0 then p.p_req_span else p.p_span)
              t entry;
            Wire.Updated
              {
                rev = updated.Serving.Artifact.rev;
                samples = Serving.Artifact.num_samples updated;
              })

(* ------------------------------------------------------------------ *)
(* Batch windows. A window opens at its oldest admission and closes
   [batch_delay_s] later (immediately when 0, or when draining).
   Expired requests are refused by a sweep that runs on every tick —
   never gated on the window — so deadline-expiry latency tracks the
   select timeout, not the batch cadence.                              *)

let refuse_expired q ~now =
  let n = Queue.length q in
  for _ = 1 to n do
    let p = Queue.pop q in
    if p.p_conn.closed then () (* hung up: drop the work silently *)
    else if p.expires_s < now then finish p deadline_error
    else Queue.add p q
  done

let window_due t q =
  (not (Queue.is_empty q))
  && (t.config.batch_delay_s <= 0.
     || stopping t
     || Obs.Clock.monotonic_raw () -. (Queue.peek q).admitted_mono
        >= t.config.batch_delay_s)

(* Drain the worker's whole queue as one window: group predicts by
   (meta, with_std) and ensemble calls by name, first-seen order, and
   run each group against the window-start snapshot. *)
let process_window t w =
  let window = List.of_seq (Queue.to_seq w.queue) in
  Queue.clear w.queue;
  let live = List.filter (fun p -> not p.p_conn.closed) window in
  (if Obs.Trace.enabled () then
     let start_us = Obs.Clock.now_us () in
     List.iter (trace_queued ~start_us) live);
  let groups = ref [] in
  let egroups = ref [] in
  List.iter
    (fun p ->
      match p.work with
      | Wpredict { meta; points; with_std } -> (
          let key = (meta, with_std) in
          match List.assoc_opt key !groups with
          | Some members -> members := (p, points) :: !members
          | None -> groups := (key, ref [ (p, points) ]) :: !groups)
      | Wensemble { name; points } -> (
          match List.assoc_opt name !egroups with
          | Some members -> members := (p, points) :: !members
          | None -> egroups := (name, ref [ (p, points) ]) :: !egroups)
      | Wupdate _ | Wensemble_stats _ | Wpromote ->
          () (* admitted straight to the writer, never queued *))
    live;
  let run_group run (key, members) =
    let members = List.rev !members in
    try run key members
    with e -> List.iter (fun (p, _) -> finish p (internal_error e)) members
  in
  List.iter
    (run_group (fun (meta, with_std) ->
         run_predict_group t ~arena:w.arena meta with_std))
    (List.rev !groups);
  List.iter
    (run_group (fun name -> run_ensemble_group t ~arena:w.arena name))
    (List.rev !egroups)

(* ------------------------------------------------------------------ *)
(* Replication: the follower's leader link (non-blocking connect).     *)

let establish_link t conn =
  conn.peer <- Link;
  (* fresh link: readiness waits for this subscription's catch-up *)
  t.catch_up_done <- false;
  Replication.Backoff.reset t.link_backoff;
  Obs.Events.emit "link_up"
    ~fields:
      [
        ( "leader",
          Obs.Trace.Str
            (match Atomic.get t.leader with
            | Some a -> address_to_string a
            | None -> "") );
      ];
  let vector =
    List.map
      (fun (a : Serving.Artifact.t) -> (a.meta, a.rev))
      (store_artifacts t)
  in
  send conn (Wire.encode_request ~id:0 (Wire.Subscribe_req { vector }))

let complete_link t conn =
  match Unix.getsockopt_error conn.fd with
  | None -> establish_link t conn
  | Some _ -> close_conn t conn

let attempt_link t leader =
  match
    let domain, sockaddr = sockaddr_of leader in
    let fd = Unix.socket ~cloexec:true domain Unix.SOCK_STREAM 0 in
    Unix.set_nonblock fd;
    (fd, sockaddr)
  with
  | exception _ ->
      (* unresolvable address: keep retrying on the backoff schedule *)
      t.link_next_s <-
        now_s () +. Replication.Backoff.next_delay_s t.link_backoff
  | fd, sockaddr -> (
      let conn = mk_conn ~peer:Link_pending ~read_deadline_s:infinity fd in
      t.conns <- conn :: t.conns;
      t.link <- Some conn;
      Atomic.incr t.conn_count;
      Obs.Metrics.set g_connections (float_of_int (Atomic.get t.conn_count));
      match Unix.connect fd sockaddr with
      | () -> establish_link t conn
      | exception
          Unix.Unix_error
            ((Unix.EINPROGRESS | Unix.EWOULDBLOCK | Unix.EAGAIN), _, _) ->
          () (* completion surfaces as writability in the loop *)
      | exception Unix.Unix_error _ -> close_conn t conn)

(* ------------------------------------------------------------------ *)
(* Select timeouts. Computed from the nearest thing that needs the
   loop awake — queued deadline expiry, batch-window close, link retry,
   heartbeat, HTTP read deadline, drain grace — and capped at 0.25 s as
   an idle ceiling. Timed work is therefore handled when it is due, not
   on the next multiple of a hardcoded floor.                          *)

let drain_grace_s = 10.

let clamp_timeout x = if x < 0. then 0. else if x > 0.25 then 0.25 else x

(* Seconds until the queue next needs attention: its window close or
   its earliest deadline, whichever comes first. *)
let queue_wait_s config q ~now =
  if Queue.is_empty q then infinity
  else
    let head = Queue.peek q in
    let w =
      if config.batch_delay_s > 0. then
        (* pacing on the raw clock (see [pending.admitted_mono]) *)
        head.admitted_mono +. config.batch_delay_s
        -. Obs.Clock.monotonic_raw ()
      else 0.
    in
    Queue.fold (fun acc p -> Float.min acc (p.expires_s -. now)) w q

(* ------------------------------------------------------------------ *)
(* Workers. Each owns a disjoint set of client connections and a
   private queue, serves reads from the published snapshot and sends
   writer-only requests to the writer. One step per select tick; with
   [shards = 1] the writer runs the step of its single worker inline.  *)

(* Move a subscribing connection to the writer: remaining input,
   unflushed output and the subscription itself. The fd now belongs
   to the writer, so the worker only marks its record closed. *)
let hand_over t conn ~id vector =
  conn.closed <- true;
  Mbox.push t.writer_mbox
    (Adopt
       {
         a_fd = conn.fd;
         a_in = Buffer.contents conn.inbuf;
         a_out = List.of_seq (Queue.to_seq conn.out);
         a_out_off = conn.out_off;
         a_id = id;
         a_vector = vector;
       })

let worker_fds w = (w.mbox.Mbox.r :: read_fds w.conns, write_fds w.conns)

let worker_timeout t w ~now =
  let cand = queue_wait_s t.config w.queue ~now in
  let cand =
    if stopping t && not (Float.is_nan w.stopped_mono) then
      Float.min cand (w.stopped_mono +. drain_grace_s -. now)
    else cand
  in
  clamp_timeout cand

let worker_step t w ~readable ~writable =
  if List.mem w.mbox.Mbox.r readable then
    Mbox.clear_wake ~scratch:w.scratch w.mbox;
  List.iter
    (function
      | Accepted fd ->
          w.conns <-
            mk_conn ~peer:Client ~read_deadline_s:infinity fd :: w.conns
      | Answer (conn, frame) ->
          w.outstanding <- w.outstanding - 1;
          conn.inflight <- conn.inflight - 1;
          send conn frame)
    (Mbox.drain w.mbox);
  List.iter
    (fun c ->
      if List.mem c.fd readable then
        read_conn t ~scratch:w.scratch ~dispatch:(on_frame t w) c)
    w.conns;
  refuse_expired w.queue ~now:(now_s ());
  if window_due t w.queue then process_window t w;
  List.iter
    (fun c ->
      match c.subscribe with
      | Some (id, vector) when c.inflight = 0 && not c.closed ->
          hand_over t c ~id vector
      | _ -> ())
    w.conns;
  List.iter
    (fun c ->
      if List.mem c.fd writable || not (Queue.is_empty c.out) then
        flush_conn t c)
    w.conns;
  w.conns <- List.filter (fun c -> not c.closed) w.conns;
  Obs.Metrics.set w.conns_gauge (float_of_int (List.length w.conns));
  note_depth t w;
  if stopping t then begin
    if Float.is_nan w.stopped_mono then w.stopped_mono <- now_s ();
    (* drained and flushed (or out of grace): hang up and finish *)
    if
      (Queue.is_empty w.queue && w.outstanding = 0
      && List.for_all (fun c -> Queue.is_empty c.out) w.conns)
      || now_s () -. w.stopped_mono > drain_grace_s
    then begin
      List.iter (close_conn t) w.conns;
      w.conns <- [];
      w.finished <- true;
      Atomic.decr t.workers_live;
      (* the writer's drain waits for [workers_live]: wake its select *)
      Mbox.wake t.writer_mbox
    end
  end

(* A worker hosted on its own domain. *)
let worker_loop t w =
  (* this domain owns one core: predictor kernels submitted from here
     run inline instead of contending on the shared pool *)
  Parallel.Pool.inline_in_domain ();
  while not w.finished do
    let rs, ws = worker_fds w in
    (match Unix.select rs ws [] (worker_timeout t w ~now:(now_s ())) with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | readable, writable, _ -> worker_step t w ~readable ~writable);
    if Obs.Trace.enabled () then Obs.Trace.flush_lane ()
  done;
  Obs.Trace.flush_lane ()

(* ------------------------------------------------------------------ *)
(* The writer.                                                         *)

(* Frames on a writer-owned wire connection: a subscriber's acks. *)
let subscriber_frame t conn (frame : Wire.frame) =
  Atomic.incr t.served;
  Obs.Metrics.inc m_requests;
  match Wire.decode_request frame with
  | Ok (Wire.Repl_ack_req { seq }) when conn.peer = Subscriber ->
      Replication.Source.ack t.source conn ~seq;
      Replication.Source.note_lag t.source ~seq:(Atomic.get t.commit_seq)
  | _ -> close_conn t conn (* a replication stream carries only acks *)

(* Clean takeover: finish applying whatever the (possibly dead) leader
   already streamed, cut the link, flip the role — updates are accepted
   from the next frame on. Promoting a leader is a no-op. *)
let promote t =
  let was = Atomic.get t.leader in
  Option.iter
    (fun old ->
      (match t.link with
      | Some l when (not l.closed) && l.peer = Link ->
          read_conn t ~scratch:t.scratch ~dispatch:(subscriber_frame t) l
      | _ -> ());
      Option.iter (close_conn t) t.link;
      Atomic.set t.leader None;
      Hashtbl.reset t.snap;
      set_role_metric `Leader;
      Obs.Events.emit "promotion"
        ~fields:
          [
            ("old_leader", Obs.Trace.Str (address_to_string old));
            ("commit_seq", Obs.Trace.Int (Atomic.get t.commit_seq));
          ])
    was;
  Wire.Promoted
    { was_follower = was <> None; journal_seq = Atomic.get t.commit_seq }

(* Serve one writer-only request and route its framed reply back to the
   worker that owns the connection. An update's snapshot is published
   inside the commit — strictly before the ack crosses back — so an
   acked update is visible to a predict on any worker. *)
let serve_request t wid (p : pending) =
  if Obs.Trace.enabled () then trace_queued p ~start_us:(Obs.Clock.now_us ());
  let resp =
    if p.expires_s < now_s () then deadline_error
    else
      try
        match p.work with
        | Wupdate { meta; xs; f } -> commit_update t p meta xs f
        | Wensemble_stats name -> ensemble_stats_payload t name
        | Wpromote -> promote t
        | Wpredict _ | Wensemble _ -> internal_error (Failure "misrouted read")
      with e -> internal_error e
  in
  Mbox.push t.workers.(wid).mbox (Answer (p.p_conn, complete p resp))

(* Adopt a connection handed over by a worker: rebuild the conn record
   around the fd, run the subscription, then parse whatever else was
   already buffered. *)
let adopt t ~a_fd ~a_in ~a_out ~a_out_off ~a_id ~a_vector =
  let conn = mk_conn ~peer:Client ~read_deadline_s:infinity a_fd in
  List.iter (send conn) a_out;
  conn.out_off <- a_out_off;
  Buffer.add_string conn.inbuf a_in;
  t.conns <- conn :: t.conns;
  (try
     Obs.Metrics.time h_admin (fun () ->
         handle_subscribe t conn ~id:a_id a_vector)
   with e ->
     reply conn ~id:a_id (internal_error e);
     conn.close_after_flush <- true);
  parse_conn t ~dispatch:(subscriber_frame t) conn

let drain_writer_mbox t =
  List.iter
    (function
      | Request (wid, p) -> serve_request t wid p
      | Adopt { a_fd; a_in; a_out; a_out_off; a_id; a_vector } ->
          adopt t ~a_fd ~a_in ~a_out ~a_out_off ~a_id ~a_vector
      | Publish meta -> (
          (* a worker found this model on disk but not in the snapshot:
             publish it once for everyone (skip if a newer or equal
             revision has landed meanwhile) *)
          match Serving.Store.load ~root:t.root meta with
          | Error _ -> ()
          | Ok artifact -> (
              match
                Serving.Snapshot.find (Serving.Snapshot.current t.snapshot) meta
              with
              | Some e
                when e.Serving.Snapshot.artifact.Serving.Artifact.rev
                     >= artifact.Serving.Artifact.rev ->
                  ()
              | _ -> publish t artifact)))
    (Mbox.drain t.writer_mbox)

(* Satellite of the read-deadline sweep: scrape peers that trickle
   bytes (or never complete a request line) are dropped once their
   deadline passes, freeing the conn-table slot.                       *)
let sweep_read_deadlines t ~now =
  List.iter
    (fun c ->
      if (not c.closed) && c.read_deadline_s < now then begin
        Obs.Metrics.inc m_http_idle_drops;
        close_conn t c
      end)
    t.conns

let writer_timeout t ~now =
  (* follower: next link retry *)
  let cand =
    match Atomic.get t.leader with
    | Some _ when (not (stopping t)) && t.link = None -> t.link_next_s -. now
    | _ -> infinity
  in
  (* leader with subscribers: next heartbeat *)
  let cand =
    match Atomic.get t.leader with
    | None
      when (not (stopping t))
           && Replication.Source.subscribers t.source <> [] ->
        Float.min cand (t.last_status_s +. 1. -. now)
    | _ -> cand
  in
  (* scrape read deadlines *)
  let cand =
    List.fold_left
      (fun acc c -> Float.min acc (c.read_deadline_s -. now))
      cand t.conns
  in
  (* draining: wake for the grace cutoff *)
  let cand =
    if stopping t && not (Float.is_nan t.stopped_mono) then
      Float.min cand (t.stopped_mono +. drain_grace_s -. now)
    else cand
  in
  clamp_timeout cand

let writer_step t ~readable ~writable =
  if List.mem t.writer_mbox.Mbox.r readable then
    Mbox.clear_wake ~scratch:t.scratch t.writer_mbox;
  drain_writer_mbox t;
  if t.accepting && List.mem t.listen_fd readable then
    accept_loop t t.listen_fd;
  (match t.http_fd with
  | Some fd when t.accepting && List.mem fd readable ->
      accept_loop ~peer:Http t fd
  | _ -> ());
  List.iter
    (fun c ->
      if c.peer = Link_pending && List.mem c.fd writable then
        complete_link t c)
    t.conns;
  List.iter
    (fun c ->
      if List.mem c.fd readable then
        read_conn t ~scratch:t.scratch ~dispatch:(subscriber_frame t) c)
    t.conns;
  List.iter
    (fun c ->
      if List.mem c.fd writable || not (Queue.is_empty c.out) then
        flush_conn t c)
    t.conns;
  t.conns <- List.filter (fun c -> not c.closed) t.conns

(* ------------------------------------------------------------------ *)
(* The loop.                                                           *)

let stop_accepting t =
  if t.accepting then begin
    t.accepting <- false;
    (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
    (match t.http_fd with
    | Some fd -> ( try Unix.close fd with Unix.Unix_error _ -> ())
    | None -> ());
    (match t.addr with
    | Unix_socket path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
    | Tcp _ -> ());
    match t.http_addr with
    | Some (Unix_socket path) -> (
        try Unix.unlink path with Unix.Unix_error _ -> ())
    | Some (Tcp _) | None -> ()
  end

let close_fd t fd =
  (try Unix.close fd with Unix.Unix_error _ -> ());
  Atomic.decr t.conn_count

let run t =
  (* publish the recovered store once. [shards = 1] spawns nothing: its
     one worker steps inline on this domain, which stays fork-safe. *)
  ignore (Serving.Snapshot.load_all ~root:t.root t.snapshot);
  let inline =
    if Array.length t.workers = 1 then Some t.workers.(0) else None
  in
  let domains =
    if inline <> None then []
    else
      Array.to_list
        (Array.map
           (fun w -> Domain.spawn (fun () -> worker_loop t w))
           t.workers)
  in
  let finished = ref false in
  while not !finished do
    if stopping t then begin
      if Float.is_nan t.stopped_mono then t.stopped_mono <- now_s ();
      stop_accepting t;
      (* keep nudging the workers: wakes are idempotent and cheap *)
      Array.iter (fun w -> Mbox.wake w.mbox) t.workers
    end;
    (* follower: (re)connect to the leader when the backoff allows *)
    (match Atomic.get t.leader with
    | Some leader
      when (not (stopping t)) && t.link = None && now_s () >= t.link_next_s ->
        attempt_link t leader
    | _ -> ());
    (* leader: liveness heartbeat about once a second, so idle
       followers keep a fresh view of the leader's commit sequence
       without any acknowledgement traffic *)
    (match Atomic.get t.leader with
    | None when not (stopping t) ->
        let now = now_s () in
        if now -. t.last_status_s >= 1. then begin
          t.last_status_s <- now;
          match Replication.Source.subscribers t.source with
          | [] -> ()
          | subs ->
              let hb =
                Wire.encode_push
                  (Wire.Repl_heartbeat
                     { seq = Atomic.get t.commit_seq; ts = Obs.Clock.wall () })
              in
              List.iter
                (fun c ->
                  if (not c.closed) && c.out_bytes < max_buffered_out then
                    send c hb)
                subs
        end
    | _ -> ());
    sweep_read_deadlines t ~now:(now_s ());
    let step_inline =
      match inline with Some w when not w.finished -> Some w | _ -> None
    in
    let rs =
      (t.writer_mbox.Mbox.r :: read_fds t.conns)
      @ (if t.accepting then
           t.listen_fd :: Option.to_list t.http_fd
         else [])
    in
    let ws = write_fds t.conns in
    let now = now_s () in
    let rs, ws, timeout =
      match step_inline with
      | Some w ->
          let wr, ww = worker_fds w in
          ( rs @ wr,
            ws @ ww,
            Float.min (writer_timeout t ~now) (worker_timeout t w ~now) )
      | None -> (rs, ws, writer_timeout t ~now)
    in
    (match Unix.select rs ws [] timeout with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | readable, writable, _ ->
        writer_step t ~readable ~writable;
        Option.iter (fun w -> worker_step t w ~readable ~writable) step_inline);
    (* drained and flushed (or out of grace): hang up and return.
       Requests from still-draining workers keep being served through
       the mailbox until every worker has finished. *)
    if
      stopping t
      && ((Atomic.get t.workers_live = 0
          && List.for_all (fun c -> Queue.is_empty c.out) t.conns)
         || now_s () -. t.stopped_mono > drain_grace_s)
    then begin
      List.iter (close_conn t) t.conns;
      t.conns <- [];
      finished := true
    end
  done;
  stop_accepting t;
  List.iter Domain.join domains;
  (* connections dealt or handed over after their receiver finished *)
  Array.iter
    (fun w ->
      List.iter
        (function Accepted fd -> close_fd t fd | Answer _ -> ())
        (Mbox.drain w.mbox);
      Mbox.close w.mbox)
    t.workers;
  List.iter
    (function Adopt { a_fd; _ } -> close_fd t a_fd | _ -> ())
    (Mbox.drain t.writer_mbox);
  Mbox.close t.writer_mbox;
  (* when run was hosted on a spawned domain its trace lane would die
     with the domain; hand it to the merge buffer first *)
  Obs.Trace.flush_lane ();
  try Serving.Journal.close t.journal with Unix.Unix_error _ -> ()
