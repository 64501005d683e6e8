(** Always-on flight recorder: a process-wide {!Ring} of the most recent
    telemetry events, kept at near-disabled cost and dumped as structured
    JSON only when something goes wrong (or on explicit request).

    Recording is one [Atomic.get] plus a per-domain ring push — no mutex,
    no clock read beyond the one the caller usually already made — so it
    stays enabled in production runs where spans and [--profile] are off.
    Anomalies ({!anomaly}: partial outcomes, deadline hits, snapshot-load
    warnings, uncaught exceptions) bump a counter and, when a dump path
    has been armed ({!arm_auto_dump}), immediately write the whole ring
    plus a metrics snapshot to disk, so the last-N-events context of a
    failure survives the process. *)

type event = {
  ev_ts_us : float;         (** µs since the process origin ({!Span.now_us}) *)
  ev_dom : int;             (** recording domain id *)
  ev_pid : int;             (** logical process (app) id *)
  ev_kind : string;         (** "span", "resolve", "counters", "anomaly.*"... *)
  ev_name : string;
  ev_attrs : Span.attr list;
}

(** Per-domain ring capacity: [512].  Deliberately small — a post-mortem
    wants the recent past, and a shard this size stays cache-resident
    under the analysis working set. *)
val default_capacity : int

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

val disarm : unit -> unit
val armed : unit -> string option

(** Write the current dump ({!render_json}) to [path] now. *)
val write : ?note:string -> string -> unit

(* -- Introspection --------------------------------------------------- *)

(** Events currently retained, in timestamp order. *)
val events : unit -> event list

(** Events currently retained. *)
val length : unit -> int

(** Events ever recorded (retained + overwritten). *)
val recorded : unit -> int

(** Events lost to ring wrap-around (oldest-first eviction). *)
val dropped : unit -> int

(** Anomalies recorded since start/{!reset}. *)
val anomalies : unit -> int

(* -- Rendering, validation, round-trip ------------------------------- *)

(** One event as a single-line JSON object. *)
val event_json : event -> string

(** Full dump: header (anomaly/recorded/dropped counts), embedded
    {!Metrics} snapshot, then one event object per line (oldest first).
    [note] records why the dump was taken (default ["on-demand"]). *)
val render : ?note:string -> event list -> string

(** {!render} over the current ring contents. *)
val render_json : ?note:string -> unit -> string

(** Check a dump's event-stream invariants: timestamps finite,
    non-negative and non-decreasing; kind and name non-empty. *)
val validate : event list -> (unit, string) result

(** Parse a dump produced by {!render} back into its event list (header
    and embedded metrics are skipped; [attrs] are dropped). *)
val parse : string -> (event list, string) result

(** Render, re-parse, and compare (ignoring attrs, at the renderer's
    timestamp precision). *)
val round_trips : event list -> bool

(** Forget everything: ring contents, anomaly count, armed path (tests). *)
val reset : unit -> unit
