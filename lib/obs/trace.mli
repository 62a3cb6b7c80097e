(** Span-based tracing with a Chrome trace-event JSON exporter.

    Disabled by default: every entry point first checks one [bool ref],
    so the no-flag path costs a couple of loads and branches and records
    nothing — numerical results are identical with tracing on or off
    (test-enforced). Enable with {!start}, drain with {!export_json} or
    {!write_file}; the output opens directly in [chrome://tracing] or
    Perfetto.

    Spans nest through an explicit stack: a span begun while another is
    open records that span as its parent, and its depth. Instant events
    ({!instant}) double as the structured log sink.

    Recording is domain-safe: every domain writes to its own lane
    (buffer + span stack) held in domain-local storage, so hot-path
    recording never takes a lock. Worker domains hand their lane over
    with {!flush_lane} (the [Parallel.Pool] does this after every task
    and at shutdown); the export renders each lane as its own [tid]
    row, so a parallel run shows one timeline per domain. *)

type value = Bool of bool | Int of int | Float of float | Str of string
(** Span / event attribute values. *)

type span
(** An open span. When tracing is disabled all operations receive an
    inert dummy span and do nothing. *)

type event =
  | Complete of {
      id : int;
      trace : int;  (** Distributed trace id; 0 when the span had none. *)
      name : string;
      cat : string;
      start_us : float;
      dur_us : float;
      parent : int option;
      depth : int;
      attrs : (string * value) list;
    }
  | Instant of {
      name : string;
      cat : string;
      ts_us : float;
      attrs : (string * value) list;
    }

val enabled : unit -> bool

val start : unit -> unit
(** Clear the buffer and begin recording. *)

val stop : unit -> unit
(** Stop recording; the buffer is kept for export. *)

val clear : unit -> unit
(** Drop all recorded events. *)

val with_span :
  ?cat:string ->
  ?attrs:(string * value) list ->
  ?trace:int ->
  ?parent:int ->
  string ->
  (span -> 'a) ->
  'a
(** [with_span name f] runs [f] inside a span named [name]. The span is
    closed (and recorded) even if [f] raises. When tracing is off this
    is [f dummy].

    [?trace]/[?parent] inject a remote context (e.g. a client span id
    carried in a wire frame) and apply only when the span is a root on
    this domain's stack; nested spans inherit trace and parent from the
    enclosing span. A root span with neither minted context nor an
    injection gets a fresh {!fresh_trace_id}. *)

val set_attr : span -> string -> value -> unit
(** Attach an attribute to an open span; no-op on the dummy span. *)

val span_id : span -> int

val current : unit -> (int * int) option
(** [(trace_id, span_id)] of the innermost open span on the calling
    domain, for stamping outgoing wire frames. [None] when tracing is
    off or no span is open. *)

val fresh_trace_id : unit -> int
(** A new positive 62-bit trace id, unique across the processes of one
    fleet with overwhelming probability (seeded from pid + wall clock). *)

val alloc_id : unit -> int
(** Reserve a span id without opening a span — pair with {!complete}'s
    [?id] so children recorded first can point at a parent recorded
    later. *)

val complete :
  ?cat:string ->
  ?attrs:(string * value) list ->
  ?trace:int ->
  ?parent:int ->
  ?id:int ->
  start_us:float ->
  dur_us:float ->
  string ->
  unit
(** Record a finished span with explicit timestamps, bypassing the span
    stack — for phases (queue wait, a fused batch kernel) whose extent
    is only known after the fact. No-op when tracing is off. *)

val instant : ?cat:string -> ?attrs:(string * value) list -> string -> unit
(** Record a zero-duration event (log line, progress tick). *)

val flush_lane : unit -> unit
(** Move the calling domain's lane (buffered events and drop count) into
    the shared merge buffer, tagged with the lane's tid. No-op on the
    main domain and on an empty lane. Worker domains must call this
    before terminating or their events are lost with their lane. *)

val merged_lanes : unit -> (int * event list) list
(** Flushed worker lanes in flush order, each as [(tid, events)] with
    events oldest first. The main lane (tid 1) is not included — read it
    through {!events}. *)

val events : unit -> event list
(** Recorded events, oldest first: the main lane followed by every
    flushed worker lane. Complete events appear in span-close order
    (children before parents) within a lane. *)

val dropped : unit -> int
(** Events discarded after the buffer limit (default 200k) was hit. *)

val set_limit : int -> unit

val export_json : unit -> string
(** The buffer as a Chrome trace-event JSON document:
    [{"displayTimeUnit":"ms","traceEvents":[...]}] with ["X"] phase
    entries for spans (args carry the attributes plus [span_id],
    [parent_id], [depth] and, when set, [trace_id]) and ["i"] entries
    for instants. *)

val write_file : string -> unit
(** {!export_json} to a file. *)
