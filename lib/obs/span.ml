(** Hierarchical spans: nested begin/end scopes carrying a category, a name,
    the recording domain (tid), a logical process id (pid — one per app in
    corpus runs), wall-clock begin/end timestamps in microseconds since the
    process origin, and typed attributes.

    The span sink is pluggable.  The default state is *no sink
    installed*, in which case {!with_span} runs its thunk with exactly one
    [Atomic.get] of overhead — no clock reads, no allocation.  The
    standard recorder is {!Recorder}: one bounded buffer shard per domain
    (via [Domain.DLS]), so the hot path never takes a mutex; shards register
    themselves under a lock once per domain and are merged at snapshot. *)

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
   (or on domains the analysis itself fans out to via its own pool — those
   inherit pid 0 unless also wrapped) carries it. *)
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

(* -- The default recorder -------------------------------------------- *)

module Recorder = struct
  type shard = {
    mutable arr : span array;
    mutable len : int;
    mutable dropped : int;
  }

  type t = {
    capacity : int;               (* per shard *)
    lock : Mutex.t;               (* guards [shards] registration/merge *)
    shards : shard list ref;
    key : shard Domain.DLS.key;
  }

  let create ?(capacity = 1 lsl 16) () =
    let lock = Mutex.create () in
    let shards = ref [] in
    let key =
      (* runs on first use per domain — the only locked step of the hot
         path, paid once per domain *)
      Domain.DLS.new_key (fun () ->
          let s = { arr = [||]; len = 0; dropped = 0 } in
          Mutex.lock lock;
          shards := s :: !shards;
          Mutex.unlock lock;
          s)
    in
    { capacity = max 16 capacity; lock; shards; key }

  let dummy =
    { cat = ""; name = ""; pid = 0; tid = 0; t0_us = 0.0; t1_us = 0.0;
      attrs = [] }

  (* Unsynchronized per-domain append: the shard is owned by the recording
     domain; merges happen after the workload quiesces (pool batches settle
     through the pool's own mutex, which publishes these writes). *)
  let sink t span =
    let s = Domain.DLS.get t.key in
    if s.len >= t.capacity then s.dropped <- s.dropped + 1
    else begin
      let cap = Array.length s.arr in
      if s.len >= cap then begin
        let cap' = min t.capacity (max 256 (2 * cap)) in
        let arr' = Array.make cap' dummy in
        Array.blit s.arr 0 arr' 0 s.len;
        s.arr <- arr'
      end;
      s.arr.(s.len) <- span;
      s.len <- s.len + 1
    end

  let with_lock t f =
    Mutex.lock t.lock;
    Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

  (** All recorded spans, merged across shards (unordered — exporters sort).
      Call after the instrumented workload has quiesced. *)
  let spans t =
    with_lock t (fun () ->
        List.concat_map
          (fun s -> Array.to_list (Array.sub s.arr 0 s.len))
          !(t.shards))

  let length t =
    with_lock t (fun () ->
        List.fold_left (fun n s -> n + s.len) 0 !(t.shards))

  (** Spans dropped because a shard hit its capacity. *)
  let dropped t =
    with_lock t (fun () ->
        List.fold_left (fun n s -> n + s.dropped) 0 !(t.shards))

  let clear t =
    with_lock t (fun () ->
        List.iter
          (fun s ->
             s.len <- 0;
             s.dropped <- 0)
          !(t.shards))

  (** Install this recorder as the global span sink. *)
  let install t = set_sink (Some (sink t))
end
