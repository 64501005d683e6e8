(** Always-on flight recorder: a process-wide {!Ring} of the most recent
    telemetry events, each a zero-length {!Span.span} whose [cat] is its
    kind, kept at near-disabled cost and dumped as a Chrome trace only
    when something goes wrong (or on explicit request).

    Recording is one [Atomic.get] plus a per-domain ring push — no mutex,
    no clock read beyond the one the caller usually already made — so it
    stays enabled in production runs where spans and `--profile` are off.
    Anomalies ({!anomaly}: partial outcomes, deadline hits, snapshot-load
    warnings, uncaught exceptions) bump a counter and, when a dump path has
    been armed ({!arm_auto_dump}), immediately write the whole ring plus a
    metrics snapshot to disk, so the last-N-events context of a failure
    survives the process. *)

(* -- Recording ------------------------------------------------------- *)

(* Deliberately small: a post-mortem wants the recent past, and a shard
   this size stays cache-resident under the analysis working set. *)
let ring : Span.span Ring.t = Ring.create ~capacity:(1 lsl 9) ()

let enabled_flag = Atomic.make true
let enabled () = Atomic.get enabled_flag
let set_enabled b = Atomic.set enabled_flag b

let anomalies_count = Atomic.make 0

let record ?ts_us ?(attrs = []) ~kind ~name () =
  if Atomic.get enabled_flag then begin
    let ts = match ts_us with Some t -> t | None -> Span.now_us () in
    Ring.push ring
      { Span.cat = kind; name; pid = Span.current_pid ();
        tid = Span.self_tid (); t0_us = ts; t1_us = ts; attrs }
  end

(* -- Introspection --------------------------------------------------- *)

let events () =
  List.stable_sort
    (fun (a : Span.span) (b : Span.span) -> Float.compare a.t0_us b.t0_us)
    (Ring.snapshot ring)

let length () = Ring.length ring
let recorded () = Ring.total ring
let dropped () = Ring.overwritten ring
let anomalies () = Atomic.get anomalies_count

(* -- The dump -------------------------------------------------------- *)

let render ?(note = "on-demand") () =
  let metrics = String.trim (Metrics.render_json (Metrics.snapshot ())) in
  Chrome.render
    ~fields:
      [ Jsonf.int_field "version" 2; Jsonf.str_field "note" note;
        Jsonf.int_field "anomalies" (anomalies ());
        Jsonf.int_field "events_recorded" (recorded ());
        Jsonf.int_field "events_dropped" (dropped ());
        "\"metrics\": " ^ metrics ]
    (Chrome.events_of_spans (events ()))

let dump_lock = Mutex.create ()
let armed_path = Atomic.make None

let write ?note path =
  let s = render ?note () in
  Mutex.lock dump_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock dump_lock)
    (fun () -> Io.write_string path s)

let arm_auto_dump path = Atomic.set armed_path (Some path)

let anomaly ?ts_us ?attrs ~kind ~name () =
  Atomic.incr anomalies_count;
  record ?ts_us ?attrs ~kind:("anomaly." ^ kind) ~name ();
  match Atomic.get armed_path with
  | None -> ()
  | Some path ->
    (try write ~note:("anomaly." ^ kind) path with Sys_error _ -> ())

let install_crash_handler () =
  Printexc.set_uncaught_exception_handler (fun exn bt ->
      (try
         anomaly
           ~attrs:[ ("exn", Span.Str (Printexc.to_string exn)) ]
           ~kind:"crash" ~name:"uncaught-exception" ()
       with _ -> ());
      Printexc.default_uncaught_exception_handler exn bt)

let reset () =
  Ring.clear ring;
  Atomic.set anomalies_count 0;
  Atomic.set armed_path None
