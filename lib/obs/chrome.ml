(** Chrome trace-event export: turns recorded spans into the JSON array
    format that [chrome://tracing] and Perfetto open directly — [ph:"B"]/
    [ph:"E"] duration events with [pid] = app and [tid] = domain, so a
    corpus run visibly shows pool utilization and stragglers.

    Spans arrive as closed scopes in no particular order; per (pid, tid)
    they form a laminar family (they were recorded by properly nested
    [with_span] scopes on one domain).  The exporter rebuilds that nesting
    with a stack sweep, then merges all threads by time and assigns strictly
    increasing integer microsecond timestamps (ties bumped by 1µs), so the
    emitted stream satisfies the two invariants the validator (and the CI
    round-trip check) asserts: every B has a matching stack-ordered E per
    (pid, tid), and ts is strictly monotonic across the file. *)

type event = {
  e_ph : char;        (** 'B', 'E' or 'C' (counter sample) *)
  e_ts : int;         (** µs, strictly increasing across the event list *)
  e_pid : int;
  e_tid : int;
  e_cat : string;
  e_name : string;
  e_args : Span.attr list;  (** on 'B' and 'C' events only *)
}

(** One sample of a named numeric series, rendered as a Chrome counter
    ('C'-phase) track under its pid — cache hit-rates and sink counts show
    up as area charts alongside the span timeline. *)
type counter = {
  c_ts_us : float;    (** µs since the process origin *)
  c_pid : int;
  c_name : string;
  c_value : float;
}

(* -- Span list -> well-nested event list ----------------------------- *)

(* One thread's spans -> an alternating B/E token stream in time order.
   Sorting by (t0 asc, t1 desc) puts enclosing spans before the spans they
   contain; the stack then closes every span that does not contain the next
   one.  Tokens carry float timestamps; integers are assigned after the
   cross-thread merge. *)
let thread_tokens spans =
  let spans =
    List.sort
      (fun (a : Span.span) (b : Span.span) ->
         match Float.compare a.t0_us b.t0_us with
         | 0 -> Float.compare b.t1_us a.t1_us
         | c -> c)
      spans
  in
  let out = ref [] in
  let stack = ref [] in
  let close (s : Span.span) = out := (s.Span.t1_us, 'E', s) :: !out in
  let contains (outer : Span.span) (inner : Span.span) =
    inner.Span.t0_us >= outer.Span.t0_us
    && inner.Span.t1_us <= outer.Span.t1_us
  in
  List.iter
    (fun (s : Span.span) ->
       let rec unwind () =
         match !stack with
         | top :: rest when not (contains top s) ->
           close top;
           stack := rest;
           unwind ()
         | _ -> ()
       in
       unwind ();
       out := (s.Span.t0_us, 'B', s) :: !out;
       stack := s :: !stack)
    spans;
  List.iter close !stack;
  List.rev !out

let events_of_spans ?(counters = []) spans =
  (* group by (pid, tid) *)
  let groups : (int * int, Span.span list ref) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun (s : Span.span) ->
       let key = (s.Span.pid, s.Span.tid) in
       match Hashtbl.find_opt groups key with
       | Some cell -> cell := s :: !cell
       | None -> Hashtbl.add groups key (ref [ s ]))
    spans;
  let streams =
    Hashtbl.fold (fun key cell acc -> (key, thread_tokens !cell) :: acc)
      groups []
    |> List.sort compare  (* deterministic thread order *)
  in
  (* k-way merge by token time; stable within a thread (streams are already
     time-ordered), ties across threads resolved by (pid, tid).  Counter
     samples join the merge as stackless 'C' tokens on tid 0. *)
  let span_tokens =
    List.concat_map
      (fun ((pid, tid), toks) ->
         List.map
           (fun (ts, ph, (s : Span.span)) ->
              ( ts, pid, tid, ph, s.Span.cat, s.Span.name,
                if ph = 'B' then s.Span.attrs else [] ))
           toks)
      streams
  in
  let counter_tokens =
    List.map
      (fun c ->
         ( c.c_ts_us, c.c_pid, 0, 'C', "counter", c.c_name,
           [ ("value", Span.Float c.c_value) ] ))
      (List.sort
         (fun a b ->
            match Float.compare a.c_ts_us b.c_ts_us with
            | 0 -> compare (a.c_pid, a.c_name) (b.c_pid, b.c_name)
            | r -> r)
         counters)
  in
  let all =
    span_tokens @ counter_tokens
    |> List.stable_sort (fun (ta, pa, ia, _, _, _, _) (tb, pb, ib, _, _, _, _) ->
        match Float.compare ta tb with
        | 0 -> compare (pa, ia) (pb, ib)
        | c -> c)
  in
  (* strictly increasing integer timestamps: monotonic bumping preserves
     the order just established, and per-thread order is a subsequence *)
  let last = ref min_int in
  List.map
    (fun (ts, pid, tid, ph, cat, name, args) ->
       let t = int_of_float (Jsonf.clamp ts) in
       let t = if t <= !last then !last + 1 else t in
       last := t;
       { e_ph = ph; e_ts = t; e_pid = pid; e_tid = tid; e_cat = cat;
         e_name = name; e_args = args })
    all

(* -- Rendering ------------------------------------------------------- *)

let value_json : Span.value -> string = function
  | Span.Str s -> Printf.sprintf "\"%s\"" (Jsonf.escape s)
  | Span.Int i -> string_of_int i
  | Span.Float f -> Jsonf.number f
  | Span.Bool b -> if b then "true" else "false"

let args_json args =
  String.concat ","
    (List.map
       (fun (k, v) -> Printf.sprintf "\"%s\":%s" (Jsonf.escape k) (value_json v))
       args)

let event_json e =
  let args = if e.e_args = [] then "" else Printf.sprintf ",\"args\":{%s}" (args_json e.e_args) in
  Printf.sprintf
    "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"%c\",\"ts\":%d,\"pid\":%d,\"tid\":%d%s}"
    (Jsonf.escape e.e_name) (Jsonf.escape e.e_cat) e.e_ph e.e_ts e.e_pid
    e.e_tid args

(* Metadata events give the processes/threads readable names in the UI.
   They carry no ts and are excluded from validation and round-trip. *)
let metadata_json ~pid_names events =
  let seen = Hashtbl.create 8 in
  List.concat_map
    (fun e ->
       let pid_meta =
         if Hashtbl.mem seen (`P e.e_pid) then []
         else begin
           Hashtbl.replace seen (`P e.e_pid) ();
           let name =
             match List.assoc_opt e.e_pid pid_names with
             | Some n -> n
             | None -> if e.e_pid = 0 then "app" else Printf.sprintf "app-%d" e.e_pid
           in
           [ Printf.sprintf
               "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,\"args\":{\"name\":\"%s\"}}"
               e.e_pid (Jsonf.escape name) ]
         end
       in
       let tid_meta =
         if Hashtbl.mem seen (`T (e.e_pid, e.e_tid)) then []
         else begin
           Hashtbl.replace seen (`T (e.e_pid, e.e_tid)) ();
           [ Printf.sprintf
               "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":%d,\"args\":{\"name\":\"domain-%d\"}}"
               e.e_pid e.e_tid e.e_tid ]
         end
       in
       pid_meta @ tid_meta)
    events

(* The array form, or with [fields] the object form: those members, then
   the events as its "traceEvents" array.  Either way one event per line. *)
let render ?(pid_names = []) ?fields events =
  let b = Buffer.create 4096 in
  (match fields with
   | None -> Buffer.add_string b "[\n"
   | Some fields ->
     Buffer.add_string b "{\n";
     List.iter (fun f -> Printf.bprintf b "  %s,\n" f) fields;
     Buffer.add_string b "  \"traceEvents\": [\n");
  let lines = metadata_json ~pid_names events @ List.map event_json events in
  List.iteri
    (fun i line ->
       if i > 0 then Buffer.add_string b ",\n";
       Buffer.add_string b line)
    lines;
  Buffer.add_string b (if fields = None then "\n]\n" else "\n]\n}\n");
  Buffer.contents b

let write ?pid_names ?counters path spans =
  let events = events_of_spans ?counters spans in
  Io.write_string path (render ?pid_names events);
  List.length events

(* -- Validation ------------------------------------------------------ *)

(** Check the exporter's invariants: strictly increasing ts across the
    list, and per (pid, tid) every 'E' closes the most recent open 'B' of
    the same name with no 'B' left open at the end.  'C' counter samples
    have no stack effect. *)
let validate events =
  let stacks : (int * int, (string * string) list ref) Hashtbl.t =
    Hashtbl.create 8
  in
  let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let rec go last = function
    | [] ->
      Hashtbl.fold
        (fun (pid, tid) stack acc ->
           match acc, !stack with
           | Error _, _ | _, [] -> acc
           | Ok (), (_, name) :: _ ->
             err "unclosed B %S on pid=%d tid=%d" name pid tid)
        stacks (Ok ())
    | e :: rest ->
      if e.e_ts <= last then
        err "ts %d not strictly increasing (follows %d)" e.e_ts last
      else begin
        let key = (e.e_pid, e.e_tid) in
        let stack =
          match Hashtbl.find_opt stacks key with
          | Some s -> s
          | None ->
            let s = ref [] in
            Hashtbl.add stacks key s;
            s
        in
        match e.e_ph with
        | 'B' ->
          stack := (e.e_cat, e.e_name) :: !stack;
          go e.e_ts rest
        | 'E' ->
          (match !stack with
           | (cat, name) :: tl when cat = e.e_cat && name = e.e_name ->
             stack := tl;
             go e.e_ts rest
           | (_, open_name) :: _ ->
             err "E %S does not close open B %S (pid=%d tid=%d)" e.e_name
               open_name e.e_pid e.e_tid
           | [] -> err "E %S with no open B (pid=%d tid=%d)" e.e_name e.e_pid e.e_tid)
        | 'C' -> go e.e_ts rest
        | c -> err "unexpected ph %C" c
      end
  in
  go min_int events

(* -- Round-trip parser ----------------------------------------------- *)

(* A deliberately minimal parser for exactly the renderer's own output
   (one event object per line, fixed field order, no nested objects except
   args): enough for a round-trip assertion without a JSON dependency.
   Only a line that opens an object with a key is an event, so the
   members of the object form read past.  [args] are not reconstructed.  Field readers
   live in {!Jsonf}. *)

let field_str = Jsonf.field_str
let field_int = Jsonf.field_int

(** Parse the renderer's own output, either form, back into events ('M'
    metadata lines are skipped; [args] are dropped).  Returns [Error] on a
    malformed event line. *)
let parse s =
  let lines = String.split_on_char '\n' s in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest ->
      let line = String.trim line in
      if not (String.starts_with ~prefix:"{\"" line) then go acc rest
      else begin
        match field_str line "ph" with
        | Some "M" -> go acc rest
        | Some (("B" | "E" | "C") as ph) ->
          (match
             ( field_str line "name", field_str line "cat",
               field_int line "ts", field_int line "pid",
               field_int line "tid" )
           with
           | Some name, Some cat, Some ts, Some pid, Some tid ->
             go
               ({ e_ph = ph.[0]; e_ts = ts; e_pid = pid; e_tid = tid;
                  e_cat = cat; e_name = name; e_args = [] }
                :: acc)
               rest
           | _ -> Error (Printf.sprintf "unparseable event line: %s" line))
        | Some ph -> Error (Printf.sprintf "unexpected ph %S" ph)
        | None -> Error (Printf.sprintf "line without ph: %s" line)
      end
  in
  go [] lines

let strip_args e = { e with e_args = [] }

(** Render, re-parse, and compare (ignoring args): the exporter round-trip
    the bench smoke asserts. *)
let round_trips events =
  match parse (render events) with
  | Error _ -> false
  | Ok parsed -> List.map strip_args events = parsed
