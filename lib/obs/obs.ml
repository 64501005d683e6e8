(** The telemetry layer: hierarchical {!Span}s, a sharded deterministic
    {!Metrics} registry, {!Chrome} trace-event export, the always-on
    {!Flight} recorder, the OpenMetrics {!Export} exposition, a per-phase
    self-time {!Summary}, and the shared {!Jsonf}/{!Io} helpers every
    artifact writer goes through.

    One event type: a {!Span.span}.  A flight event is a zero-length span
    whose category is its kind, so {!Ring} is the one per-domain buffer
    and {!Chrome} the one writer: the flight recorder keeps its newest 512
    events per domain in a ring and dumps them as a Chrome trace, and the
    span recorder ([Span.install_recorder], behind [--profile]) its newest
    65,536 spans per domain, counting older ones as overwritten.

    Everything is off-by-default-cheap: with no span sink installed and
    metrics disabled ({!disable}), the instrumentation costs one
    [Atomic.get] per call site — the bench's [--obs-overhead] section
    measures exactly this margin.  The flight recorder is the exception by
    design: it stays on in production runs, at a cost the same bench holds
    under the metrics-only budget. *)

module Jsonf = Jsonf
module Io = Io
module Span = Span
module Metrics = Metrics
module Chrome = Chrome
module Ring = Ring
module Flight = Flight
module Export = Export
module Summary = Summary

(** Turn all recording off: removes the span sink, disables metrics and
    stops the flight recorder (benchmark baselines only — production keeps
    the flight recorder on). *)
let disable () =
  Span.set_sink None;
  Metrics.set_enabled false;
  Flight.set_enabled false

(** (Re-)enable metrics recording.  Span recording turns on by installing a
    sink ([Span.install_recorder]). *)
let enable_metrics () = Metrics.set_enabled true

(** (Re-)enable the always-on flight recorder (it starts enabled; this
    undoes {!disable}). *)
let enable_flight () = Flight.set_enabled true

(** [true] when nothing records: no span sink, metrics disabled, flight
    recorder off. *)
let disabled () =
  (not (Span.enabled ())) && (not (Metrics.enabled ()))
  && not (Flight.enabled ())
