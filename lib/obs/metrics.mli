(** Process-wide metrics registry: counters, gauges and cumulative
    histograms with Prometheus text exposition and a JSON dump.

    Metrics are registered once (typically at module initialization —
    registering an existing name returns the existing metric) and are
    always listed in the exposition, so dashboards see a stable schema
    even before a value lands. Recording is gated on {!enabled}: when
    collection is off (the default) every [inc]/[set]/[observe] is a
    single load-and-branch, and instrumented numerical code never takes
    a different computational path.

    The registry is domain-safe: enabled-path mutations take one global
    mutex, so recording from [Parallel.Pool] workers never tears a
    histogram; the disabled path stays a bare flag check. *)

type counter

type gauge

type histogram

val enable : unit -> unit

val disable : unit -> unit

val enabled : unit -> bool

val counter : ?help:string -> ?labels:(string * string) list -> string -> counter
(** Monotone counter. [labels] identify one series within the metric
    family; re-registering the same (name, labels) pair returns the
    existing series, so dynamic per-model series can be requested on
    every use. Label values may contain any bytes — they are escaped at
    exposition time. @raise Invalid_argument if the name is already
    registered as a different metric type, is not a valid Prometheus
    metric name (see {!sanitize_name}), or a label name is invalid or
    duplicated. *)

val gauge : ?help:string -> ?labels:(string * string) list -> string -> gauge

val histogram :
  ?help:string ->
  ?labels:(string * string) list ->
  ?buckets:float array ->
  string ->
  histogram
(** Cumulative histogram. [buckets] are the upper bounds (strictly
    increasing; an implicit [+Inf] bucket is always appended); the
    default is {!latency_buckets}. The label name ["le"] is reserved.
    @raise Invalid_argument as {!counter}, or on bad buckets. *)

val sanitize_name : string -> string
(** Map an arbitrary string onto the metric-name charset
    [[a-zA-Z_:][a-zA-Z0-9_:]*]: invalid bytes become ['_'], a leading
    digit gains a ['_'] prefix, [""] becomes ["_"]. Idempotent, and
    [valid_name (sanitize_name s)] always holds. *)

val valid_name : string -> bool
(** Whether [s] is a well-formed Prometheus metric name as-is. *)

val escape_label_value : string -> string
(** Text-format 0.0.4 label-value escaping: backslash, double quote and
    newline become two-character escapes. Applied automatically by
    {!to_prometheus}. *)

val latency_buckets : float array
(** Log-scale latency bounds in seconds: 1-2.5-5 per decade from 1 us
    to 10 s. *)

val inc : ?by:float -> counter -> unit

val set : gauge -> float -> unit

val observe : histogram -> float -> unit

val time : histogram -> (unit -> 'a) -> 'a
(** Run a thunk and observe its wall-clock duration in seconds; when
    collection is off, exactly the thunk. *)

(* Introspection (tests, [repro stats]). *)

val counter_value : counter -> float

val gauge_value : gauge -> float

val gauge_is_set : gauge -> bool

val histogram_buckets : histogram -> (float * int) array
(** Per-bucket (non-cumulative) counts; the final entry has bound
    [infinity]. *)

val histogram_sum : histogram -> float

val histogram_count : histogram -> int


val find_gauge : ?labels:(string * string) list -> string -> gauge option
(** Look up one series; [labels] defaults to the unlabeled series. *)

val find_counter : ?labels:(string * string) list -> string -> counter option

val family : ?prefix:bool -> string -> counter list
(** Every registered series whose metric name equals [name] (or, with
    [~prefix:true], starts with it), in registration order. *)

val reset : unit -> unit
(** Zero every registered metric (registrations are kept). *)

val to_prometheus : unit -> string
(** Prometheus text exposition format 0.0.4: families in
    first-registration order, each emitted as one HELP/TYPE header (the
    first non-empty help wins) followed by every series of the family;
    histograms expose cumulative [_bucket{le=...}] lines including
    [+Inf], then [_sum] and [_count]; label values are escaped per
    {!escape_label_value}. *)

val to_json : unit -> string
(** [{"metrics":[...]}] with one object per metric. *)
