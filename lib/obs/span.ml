(** Hierarchical spans: nested begin/end scopes carrying a category, a name,
    the recording domain (tid), a logical process id (pid — one per app in
    corpus runs), wall-clock begin/end timestamps in microseconds since the
    process origin, and typed attributes.

    The span sink is pluggable.  The default state is *no sink
    installed*, in which case {!with_span} runs its thunk with exactly one
    [Atomic.get] of overhead — no clock reads, no allocation.  The one
    recorder is a {!Ring} of spans ({!install_recorder}): the flight
    recorder's per-domain buffer, so the hot path never takes a mutex, each
    domain keeps its newest 65,536 spans, and an exited domain's shard is
    reused. *)

type value = Str of string | Int of int | Float of float | Bool of bool

type attr = string * value

type span = {
  cat : string;
  name : string;
  pid : int;          (** logical process (app) id; 0 outside corpus runs *)
  tid : int;          (** recording domain id *)
  t0_us : float;      (** begin, µs since the process origin *)
  t1_us : float;      (** end, µs since the process origin *)
  attrs : attr list;
}

type sink = span -> unit

let duration_us s = s.t1_us -. s.t0_us

(* -- Global state ---------------------------------------------------- *)

let origin = Unix.gettimeofday ()

let now_us () = (Unix.gettimeofday () -. origin) *. 1e6

let sink_slot : sink option Atomic.t = Atomic.make None

let set_sink s = Atomic.set sink_slot s
let enabled () = Atomic.get sink_slot <> None

(* The logical pid is dynamically scoped per domain: a corpus task wraps one
   whole app analysis in [with_pid], and every span recorded on that domain
   carries it; an analysis runs on its calling domain, and spans of any
   other domain keep pid 0 unless it is wrapped too. *)
let pid_key = Domain.DLS.new_key (fun () -> ref 0)

let current_pid () = !(Domain.DLS.get pid_key)

let with_pid pid f =
  let cell = Domain.DLS.get pid_key in
  let saved = !cell in
  cell := pid;
  Fun.protect ~finally:(fun () -> cell := saved) f

let self_tid () = (Domain.self () :> int)

(* -- Recording ------------------------------------------------------- *)

(** Start a span clock.  Returns [nan] when no sink is installed, which
    makes the matching {!emit} free as well. *)
let start () = if enabled () then now_us () else Float.nan

(** [true] when [start] actually armed a span — call sites with expensive
    attributes test this before building them. *)
let pending t0 = not (Float.is_nan t0)

(** Close a span started at [t0] and emit it to the current sink.  A [nan]
    [t0] (disabled at start time) is dropped, so enabling a sink mid-scope
    never emits a half-timed span. *)
let emit ?(attrs = []) ~cat ~name t0 =
  if not (Float.is_nan t0) then
    match Atomic.get sink_slot with
    | None -> ()
    | Some sink ->
      sink
        { cat; name; pid = current_pid (); tid = self_tid (); t0_us = t0;
          t1_us = now_us (); attrs }

(** [with_span ~cat ~name f] runs [f] inside a span; the span is emitted
    when [f] returns or raises.  (Hand-rolled unwind instead of
    [Fun.protect]: this is the instrumentation hot path and the [~finally]
    closure allocation is measurable.) *)
let with_span ?attrs ~cat ~name f =
  let t0 = start () in
  if Float.is_nan t0 then f ()
  else
    match f () with
    | v ->
      emit ?attrs ~cat ~name t0;
      v
    | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      emit ?attrs ~cat ~name t0;
      Printexc.raise_with_backtrace e bt

(* -- The recorder ------------------------------------------------------ *)

let install_recorder () =
  let ring = Ring.create ~capacity:(1 lsl 16) () in
  set_sink (Some (Ring.push ring));
  ring
