(** Chrome trace-event export ([chrome://tracing] / Perfetto): B/E duration
    events with [pid] = app and [tid] = domain, built from recorded spans.
    The one trace-event writer: [--profile] writes the array form, the
    flight dump ({!Flight}) the object form with its header members.

    Guarantees on the emitted stream (checked by {!validate} and the bench's
    round-trip smoke): every 'B' has a matching stack-ordered 'E' per
    (pid, tid), and [ts] is strictly increasing across the whole file. *)

type event = {
  e_ph : char;        (** 'B', 'E' or 'C' (counter sample) *)
  e_ts : int;         (** µs, strictly increasing across the list *)
  e_pid : int;
  e_tid : int;
  e_cat : string;
  e_name : string;
  e_args : Span.attr list;  (** on 'B' and 'C' events only *)
}

(** One sample of a named numeric series, rendered as a Chrome counter
    ('C'-phase) track under its pid. *)
type counter = {
  c_ts_us : float;    (** µs since the process origin *)
  c_pid : int;
  c_name : string;
  c_value : float;
}

(** Rebuild per-thread nesting from closed spans (any order) and merge into
    one well-nested, strictly-monotonic event stream; [counters] join the
    merge as stackless 'C' events. *)
val events_of_spans : ?counters:counter list -> Span.span list -> event list

(** Render the JSON array, prefixed with process/thread-name metadata
    events ([pid_names] maps pid -> display name; pid 0 is "app").  With
    [fields], each a rendered JSON member (["key":value]), render the
    object form instead: those members, then the events as its
    ["traceEvents"] array. *)
val render :
  ?pid_names:(int * string) list -> ?fields:string list -> event list ->
  string

(** Render typed attributes as the body of a JSON [args] object. *)
val args_json : Span.attr list -> string

(** [write path spans] exports spans (and counter samples) to [path];
    returns the event count. *)
val write :
  ?pid_names:(int * string) list -> ?counters:counter list -> string ->
  Span.span list -> int

(** Check B/E pairing per (pid, tid) and global strict ts monotonicity
    ('C' events have no stack effect). *)
val validate : event list -> (unit, string) result

(** Parse the renderer's own output, array or object form ('M' lines and
    object members skipped, args dropped). *)
val parse : string -> (event list, string) result

(** Render → parse → compare (ignoring args). *)
val round_trips : event list -> bool
