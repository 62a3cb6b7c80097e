(** Observability facade: span tracing ({!Trace}), the metrics registry
    ({!Metrics}), the structured event log ({!Events}) and the shared
    clock ({!Clock}).

    All sinks are off by default; instrumented code guards any extra
    work (timing reads, condition-number estimates) behind {!live} so
    the default path stays a no-op and numerical results are
    bit-identical with observability on or off. *)

module Clock = Clock
module Trace = Trace
module Metrics = Metrics
module Events = Events
module Json_string = Json_string

let live () = Trace.enabled () || Metrics.enabled () || Events.enabled ()
