(** Always-on flight recorder: a process-wide {!Ring} of the most recent
    telemetry events, kept at near-disabled cost and dumped as structured
    JSON only when something goes wrong (or on explicit request).

    Recording is one [Atomic.get] plus a per-domain ring push — no mutex,
    no clock read beyond the one the caller usually already made — so it
    stays enabled in production runs where spans and `--profile` are off.
    Anomalies ({!anomaly}: partial outcomes, deadline hits, snapshot-load
    warnings, uncaught exceptions) bump a counter and, when a dump path has
    been armed ({!arm_auto_dump}), immediately write the whole ring plus a
    metrics snapshot to disk, so the last-N-events context of a failure
    survives the process. *)

type event = {
  ev_ts_us : float;         (** µs since the process origin ({!Span.now_us}) *)
  ev_dom : int;             (** recording domain id *)
  ev_pid : int;             (** logical process (app) id *)
  ev_kind : string;         (** "span" | "counter" | "resolve" | "anomaly" | ... *)
  ev_name : string;
  ev_attrs : Span.attr list;
}

(* -- Recording ------------------------------------------------------- *)

let default_capacity = 1 lsl 9

let ring : event Ring.t = Ring.create ~capacity:default_capacity ()

let enabled_flag = Atomic.make true
let enabled () = Atomic.get enabled_flag
let set_enabled b = Atomic.set enabled_flag b

let anomalies_count = Atomic.make 0

let record ?ts_us ?(attrs = []) ~kind ~name () =
  if Atomic.get enabled_flag then begin
    let ts = match ts_us with Some t -> t | None -> Span.now_us () in
    Ring.push ring
      { ev_ts_us = ts; ev_dom = Span.self_tid (); ev_pid = Span.current_pid ();
        ev_kind = kind; ev_name = name; ev_attrs = attrs }
  end

(** One sample of a named numeric series (rendered as a Chrome 'C' counter
    event by the trace exporter). *)
let counter_sample ?ts_us ~name v =
  record ?ts_us ~attrs: [ ("value", Span.Float v) ] ~kind:"counter" ~name ()

(* -- Introspection --------------------------------------------------- *)

(** Events currently retained, in timestamp order. *)
let events () =
  List.stable_sort
    (fun a b -> Float.compare a.ev_ts_us b.ev_ts_us)
    (Ring.snapshot ring)

let length () = Ring.length ring
let recorded () = Ring.total ring

(** Events lost to ring wrap-around (oldest-first eviction). *)
let dropped () = Ring.overwritten ring

let anomalies () = Atomic.get anomalies_count

(* -- Rendering ------------------------------------------------------- *)

let event_json e =
  let attrs =
    if e.ev_attrs = [] then ""
    else Printf.sprintf ",\"attrs\":{%s}" (Chrome.args_json e.ev_attrs)
  in
  Printf.sprintf "{\"ts_us\":%s,\"dom\":%d,\"pid\":%d,\"kind\":\"%s\",\"name\":\"%s\"%s}"
    (Jsonf.number e.ev_ts_us) e.ev_dom e.ev_pid (Jsonf.escape e.ev_kind)
    (Jsonf.escape e.ev_name) attrs

(** Full dump: header, embedded metrics snapshot, then one event object per
    line (oldest first).  [note] records why the dump was taken. *)
let render ?(note = "on-demand") events =
  let b = Buffer.create 4096 in
  let bpf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  bpf "{\n";
  bpf "  \"version\": 1,\n";
  bpf "  %s,\n" (Jsonf.str_field "note" note);
  bpf "  %s,\n" (Jsonf.int_field "anomalies" (anomalies ()));
  bpf "  %s,\n" (Jsonf.int_field "events_recorded" (recorded ()));
  bpf "  %s,\n" (Jsonf.int_field "events_dropped" (dropped ()));
  (* embedded metrics snapshot: its lines never collide with the event-line
     prefix the parser keys on *)
  let metrics = String.trim (Metrics.render_json (Metrics.snapshot ())) in
  bpf "  \"metrics\": %s,\n" metrics;
  bpf "  \"events\": [";
  List.iteri
    (fun i e ->
       if i > 0 then Buffer.add_char b ',';
       bpf "\n    %s" (event_json e))
    events;
  bpf "\n  ]\n}\n";
  Buffer.contents b

let render_json ?note () = render ?note (events ())

(* -- Anomaly auto-dump ----------------------------------------------- *)

let dump_lock = Mutex.create ()
let armed_path = Atomic.make None

let write ?note path =
  let s = render_json ?note () in
  Mutex.lock dump_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock dump_lock)
    (fun () -> Io.write_string path s)

(** Arm automatic dumping: every subsequent {!anomaly} rewrites [path] with
    the current ring contents.  Anomaly-free runs never touch the file. *)
let arm_auto_dump path = Atomic.set armed_path (Some path)
let disarm () = Atomic.set armed_path None
let armed () = Atomic.get armed_path

(** Record an anomaly event and, if a dump path is armed, write the flight
    dump immediately (anomalies are rare; losing the ring to a crash right
    after one would defeat the recorder). *)
let anomaly ?ts_us ?attrs ~kind ~name () =
  Atomic.incr anomalies_count;
  record ?ts_us ?attrs ~kind:("anomaly." ^ kind) ~name ();
  match Atomic.get armed_path with
  | None -> ()
  | Some path ->
    (try write ~note:("anomaly." ^ kind) path with Sys_error _ -> ())

(** Route uncaught exceptions through the recorder: the crash is recorded
    as an anomaly (triggering an armed dump) before the default fatal-error
    report is printed. *)
let install_crash_handler () =
  Printexc.set_uncaught_exception_handler (fun exn bt ->
      (try
         anomaly
           ~attrs:[ ("exn", Span.Str (Printexc.to_string exn)) ]
           ~kind:"crash" ~name:"uncaught-exception" ()
       with _ -> ());
      Printexc.default_uncaught_exception_handler exn bt)

(* -- Validation and round-trip --------------------------------------- *)

(** Check a dump's event-stream invariants: timestamps finite, non-negative
    and non-decreasing; kind and name non-empty. *)
let validate events =
  let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let rec go last = function
    | [] -> Ok ()
    | e :: rest ->
      if not (Float.is_finite e.ev_ts_us) || e.ev_ts_us < 0.0 then
        err "event %S: non-finite or negative ts %f" e.ev_name e.ev_ts_us
      else if e.ev_ts_us < last then
        err "event %S: ts %.1f before predecessor %.1f" e.ev_name e.ev_ts_us
          last
      else if e.ev_kind = "" then err "event %S: empty kind" e.ev_name
      else if e.ev_name = "" then err "event at %.1f: empty name" e.ev_ts_us
      else go e.ev_ts_us rest
  in
  go neg_infinity events

(** Parse a dump produced by {!render} back into its event list (header
    and embedded metrics are skipped; [attrs] are dropped).  Keys on the
    fixed [{"ts_us":] line prefix of the renderer's own output. *)
let parse s =
  let lines = String.split_on_char '\n' s in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest ->
      let line = String.trim line in
      let line =
        if String.length line > 0 && line.[String.length line - 1] = ','
        then String.sub line 0 (String.length line - 1)
        else line
      in
      if String.length line < 9 || String.sub line 0 9 <> "{\"ts_us\":" then
        go acc rest
      else begin
        match
          ( Jsonf.field_float line "ts_us", Jsonf.field_int line "dom",
            Jsonf.field_int line "pid", Jsonf.field_str line "kind",
            Jsonf.field_str line "name" )
        with
        | Some ts, Some dom, Some pid, Some kind, Some name ->
          go
            ({ ev_ts_us = ts; ev_dom = dom; ev_pid = pid; ev_kind = kind;
               ev_name = name; ev_attrs = [] }
             :: acc)
            rest
        | _ -> Error (Printf.sprintf "unparseable flight event line: %s" line)
      end
  in
  go [] lines

let strip_attrs e = { e with ev_attrs = [] }

(* The renderer prints ts with one decimal; compare at that precision. *)
let coarse_ts e = { e with ev_ts_us = Float.round (e.ev_ts_us *. 10.) /. 10. }

(** Render, re-parse, and compare (ignoring attrs, at the renderer's
    timestamp precision). *)
let round_trips events =
  match parse (render events) with
  | Error _ -> false
  | Ok parsed ->
    List.map (fun e -> coarse_ts (strip_attrs e)) events
    = List.map coarse_ts parsed

(** Forget everything: ring contents, anomaly count, armed path (tests). *)
let reset () =
  Ring.clear ring;
  Atomic.set anomalies_count 0;
  disarm ()
