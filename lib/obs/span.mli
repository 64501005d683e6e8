(** Hierarchical spans with pluggable sinks; the recorder is a per-domain
    {!Ring}.

    A span is one closed begin/end scope: category, name, logical process id
    (pid — one per app in corpus runs), recording domain (tid), begin/end
    timestamps in µs since the process origin, and typed attributes.  With
    no sink installed (the default), {!with_span} costs one [Atomic.get] —
    no clock read, no allocation. *)

type value = Str of string | Int of int | Float of float | Bool of bool

type attr = string * value

type span = {
  cat : string;
  name : string;
  pid : int;
  tid : int;
  t0_us : float;
  t1_us : float;
  attrs : attr list;
}

type sink = span -> unit

val duration_us : span -> float

(** Microseconds since the process origin (the timestamp base of spans). *)
val now_us : unit -> float

(** Install ([Some]) or remove ([None]) the global span sink. *)
val set_sink : sink option -> unit

(** [true] iff a sink is installed. *)
val enabled : unit -> bool

(** Run [f] inside a span of the given category and name; the span is
    emitted to the current sink when [f] returns or raises. *)
val with_span : ?attrs:attr list -> cat:string -> name:string -> (unit -> 'a) -> 'a

(** Low-level pair for call sites whose attributes are only known at the
    end: [start] reads the clock (or returns [nan] when disabled); [emit]
    closes the span and sends it to the sink ([nan] starts are dropped). *)
val start : unit -> float

(** [true] when [start] actually armed a span ([start] returned a real
    timestamp) — test before building expensive attributes. *)
val pending : float -> bool

val emit : ?attrs:attr list -> cat:string -> name:string -> float -> unit

(** Dynamically scope the logical pid for the current domain: a corpus task
    wraps one whole app analysis so its spans carry that app's pid. *)
val with_pid : int -> (unit -> 'a) -> 'a

val current_pid : unit -> int

(** The current domain id (the [tid] spans record). *)
val self_tid : unit -> int

(** Install the span recorder and return it: a fresh {!Ring} of 65,536
    spans per domain, the same buffer the flight recorder keeps.  Each
    domain retains its newest spans; older ones are counted in
    [Ring.overwritten].  A domain's shard passes to the next domain once
    it exits, keeping its spans until they are overwritten.  Read it
    ([Ring.snapshot]) after the instrumented workload has quiesced, e.g.
    after the pool batch settled. *)
val install_recorder : unit -> span Ring.t
