(** Always-on flight recorder: a process-wide {!Ring} of the most recent
    telemetry events, kept at near-disabled cost and dumped only when
    something goes wrong (or on explicit request).

    An event is a {!Span.span} of zero length ([t0_us = t1_us]) whose
    [cat] is its kind (["span"], ["resolve"], ["counters"],
    ["anomaly.*"]...) and whose [tid] is its domain.  The ring keeps each
    domain's newest 512.  Recording is one [Atomic.get] plus a per-domain
    ring push — no mutex, no clock read beyond the one the caller usually
    already made — so it stays enabled in production runs where spans and
    [--profile] are off.  Anomalies ({!anomaly}: partial outcomes,
    deadline hits, snapshot-load warnings, uncaught exceptions) bump a
    counter and, when a dump path has been armed ({!arm_auto_dump}),
    immediately write the dump, so the last-N-events context of a failure
    survives the process.

    The dump is a Chrome trace in object form, written by {!Chrome}: its
    header fields ([note], [anomalies], [events_recorded],
    [events_dropped]) and a {!Metrics} snapshot, then the events as a
    [traceEvents] array, which Perfetto and [chrome://tracing] open as
    they are. *)

(* -- Recording ------------------------------------------------------- *)

(** The recorder starts enabled; {!Obs.disable} turns it off for
    benchmark baselines. *)
val enabled : unit -> bool

val set_enabled : bool -> unit

(** Record one event on the calling domain's shard.  [ts_us] defaults to
    a fresh {!Span.now_us} reading.  A no-op when disabled. *)
val record :
  ?ts_us:float -> ?attrs:Span.attr list -> kind:string -> name:string ->
  unit -> unit

(** Record an [anomaly.<kind>] event, bump the anomaly counter, and — if
    a dump path is armed — rewrite the dump immediately (anomalies are
    rare; losing the ring to a crash right after one would defeat the
    recorder).  Write failures are swallowed. *)
val anomaly :
  ?ts_us:float -> ?attrs:Span.attr list -> kind:string -> name:string ->
  unit -> unit

(** Route uncaught exceptions through the recorder: the crash is recorded
    as an anomaly (triggering an armed dump) before the default
    fatal-error report is printed. *)
val install_crash_handler : unit -> unit

(* -- Anomaly auto-dump ----------------------------------------------- *)

(** Arm automatic dumping: every subsequent {!anomaly} rewrites [path]
    with the current ring contents.  Anomaly-free runs never touch the
    file. *)
val arm_auto_dump : string -> unit

(** Write the current dump ({!render}) to [path] now. *)
val write : ?note:string -> string -> unit

(** The dump of the current ring contents, oldest event first.  [note]
    records why it was taken (default ["on-demand"]). *)
val render : ?note:string -> unit -> string

(* -- Introspection --------------------------------------------------- *)

(** Events currently retained, in timestamp order. *)
val events : unit -> Span.span list

(** Events currently retained. *)
val length : unit -> int

(** Events ever recorded (retained + overwritten). *)
val recorded : unit -> int

(** Events lost to ring wrap-around (oldest-first eviction). *)
val dropped : unit -> int

(** Anomalies recorded since start/{!reset}. *)
val anomalies : unit -> int

(** Forget everything: ring contents, anomaly count, armed path (tests). *)
val reset : unit -> unit
