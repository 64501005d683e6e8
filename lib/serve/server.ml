(* backdroidd: the resident analysis service.

   One accept thread multiplexes the Unix-domain (and optional TCP)
   listeners through [Unix.select] together with a self-pipe, so signal-
   driven shutdown wakes it immediately.  Each connection gets a systhread
   that reads frames sequentially; the CPU-heavy work of a request is
   dispatched onto the worker-domain pool ([Parallel.Pool.async]) and the
   connection thread waits for the completion cell — systhreads on one
   domain serialize, worker domains do not.  Domain 0 keeps the accept
   loop and the connection I/O and never helps drain the pool, so the
   pool has one worker domain per [jobs].

   Analyze/query requests resolve a resident session through the
   {!Enginecache} LRU: hits serve straight off the prefaulted engine
   (replaying persisted sink results where the classmap says nothing
   changed), a same-key spec change delta-patches the resident engine in
   place, and misses open the snapshot via [Snapshot.delta ~prefault:true]
   (or build cold), evicting LRU entries under the resident ceilings. *)

module G = Appgen.Generator
module D = Backdroid.Driver

type config = {
  socket : string;
  tcp : (string * int) option;
  jobs : int;
  max_resident : int;
  max_resident_mb : float;
  max_inflight : int;
  queue_timeout_ms : float;
  drain_timeout_ms : float;
  rules : Rules.Rule.t list;
  budget : Backdroid.Context.budget;
}

let default_config =
  { socket = "backdroid.sock";
    tcp = None;
    jobs = 1;
    max_resident = 4;
    max_resident_mb = 512.0;
    max_inflight = 8;
    queue_timeout_ms = 200.0;
    drain_timeout_ms = 5000.0;
    rules = D.default_config.D.rules;
    budget = D.default_config.D.budget }

type t = {
  cfg : config;
  pool : Parallel.Pool.t;
  cache : Enginecache.t;
  adm : Admission.t;
  ruleset_hash : int;
  listeners : Unix.file_descr list;
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  stopping : bool Atomic.t;
  started_at : float;
  conn_mutex : Mutex.t;
  mutable conns : Unix.file_descr list;
  mutable threads : Thread.t list;
  mutable accept_thread : Thread.t option;
  (* request counters (under [conn_mutex]) *)
  mutable n_analyze : int;
  mutable n_query : int;
  mutable n_stats : int;
  mutable n_errors : int;
}

let m_requests = Obs.Metrics.counter "serve.requests"
let m_rejected = Obs.Metrics.counter "serve.rejected"
let m_errors = Obs.Metrics.counter "serve.errors"
let h_analyze_us = Obs.Metrics.histogram "serve.analyze_us"
let h_query_us = Obs.Metrics.histogram "serve.query_us"
let h_pool_wait_us = Obs.Metrics.histogram "serve.pool_wait_us"
let h_admission_wait_us = Obs.Metrics.histogram "serve.admission_wait_us"

let now_us () = Obs.Span.now_us ()

(* -- socket hygiene -------------------------------------------------- *)

(* Probe a pre-existing socket file: a live listener means another daemon
   owns the path (refuse to start); a dead one is stale debris from an
   unclean exit (unlink and take over). *)
let claim_socket path =
  if not (Sys.file_exists path) then Ok ()
  else begin
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    let outcome =
      match Unix.connect fd (Unix.ADDR_UNIX path) with
      | () -> `Live
      | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _)
        -> `Stale
      | exception Unix.Unix_error (e, _, _) -> `Err (Unix.error_message e)
    in
    (try Unix.close fd with Unix.Unix_error _ -> ());
    match outcome with
    | `Live ->
      Result.Error
        (Printf.sprintf
           "%s: a live backdroidd is already listening; refusing to start"
           path)
    | `Stale ->
      (try Unix.unlink path with Unix.Unix_error _ -> ());
      Ok ()
    | `Err m -> Result.Error (Printf.sprintf "%s: cannot probe socket: %s" path m)
  end

(* -- dispatching CPU work to the worker domains ---------------------- *)

(* Run [f] on a pool worker and wait for the result; connection threads
   live on domain 0, so running analyses there would serialize them.
   [submitted] is the caller's clock reading at hand-over; [f] gets the
   worker's reading at pick-up, which times the queue wait. *)
let on_pool pool ~submitted f =
  let m = Mutex.create () in
  let c = Condition.create () in
  let cell = ref None in
  Parallel.Pool.async pool (fun () ->
      let started = now_us () in
      Obs.Metrics.observe h_pool_wait_us (started -. submitted);
      let r =
        try Ok (f started)
        with e -> Result.Error (e, Printexc.get_raw_backtrace ())
      in
      Mutex.lock m;
      cell := Some r;
      Condition.signal c;
      Mutex.unlock m);
  Mutex.lock m;
  while Option.is_none !cell do
    Condition.wait c m
  done;
  Mutex.unlock m;
  match Option.get !cell with
  | Ok v -> v
  | Result.Error (e, bt) -> Printexc.raise_with_backtrace e bt

(* -- session resolution ---------------------------------------------- *)

exception Reject of string

(* A [--snapshot] request is keyed by its path alone: the resident engine
   answers for the spec it was built for, whatever the file holds now, a
   hit still requires the same spec, and another spec on the same path
   patches the resident engine ([resolve_session]). *)
let cache_key t ~snapshot spec =
  match snapshot with
  | Some path -> Printf.sprintf "snap:%s|%d" path t.ruleset_hash
  | None ->
    Printf.sprintf "app:%s|%d" (Appspec.fingerprint spec) t.ruleset_hash

let generate ?build_dex spec =
  match Appspec.generate ?build_dex spec with
  | Ok app -> app
  | Result.Error m -> raise (Reject m)

let driver_cfg t = { D.default_config with D.rules = t.cfg.rules;
                     jobs = t.cfg.jobs; budget = t.cfg.budget }

let load_results path =
  match Store.Snapshot.load_results ~path with
  | Ok [||] -> None
  | Ok strs ->
    (match Backdroid.Resultcache.of_strings strs with
     | Ok rc -> Some rc
     | Result.Error msg ->
       Backdroid.Log.warn (fun m ->
           m "ignoring malformed result cache in %s: %s" path msg);
       None)
  | Result.Error _ -> None

(* A cache miss: open the snapshot (prefaulted, and patched in memory if
   it describes an older program version) when one exists, build cold
   otherwise — saving a fresh snapshot to the requested path so the next
   daemon start warm-loads it. *)
let load_session t ~snapshot spec =
  let cfg = driver_cfg t in
  let open_with ?engine ?results (app : G.app) =
    D.open_session ~cfg ~pool:t.pool ?engine ?results ~dex:app.G.dex
      ~manifest:app.G.manifest ()
  in
  match snapshot with
  | Some path when Sys.file_exists path ->
    let app = generate ~build_dex:false spec in
    (match Store.Snapshot.delta ~prefault:true ~path app.G.program with
     | Ok (engine, rep) ->
       let name, state =
         if Store.Snapshot.unchanged rep then ("snapshot-load", Protocol.Miss)
         else ("snapshot-delta", Protocol.Delta)
       in
       Obs.Flight.record ~kind:"serve" ~name
         ~attrs:[ ("path", Obs.Span.Str path) ] ();
       (open_with ~engine ?results:(load_results path) app, state)
     | Result.Error e ->
       Obs.Flight.anomaly ~kind:"serve" ~name:"snapshot-load-failed"
         ~attrs:[ ("path", Obs.Span.Str path);
                  ("error", Obs.Span.Str (Store.Codec.error_to_string e)) ]
         ();
       let app = generate ~build_dex:true spec in
       (open_with app, Protocol.Miss))
  | Some path ->
    let app = generate ~build_dex:true spec in
    let session = open_with app in
    (try
       ignore
         (Store.Snapshot.save ~ruleset_hash:t.ruleset_hash ~path
            (D.session_engine session))
     with Sys_error _ | Unix.Unix_error _ ->
       Obs.Flight.anomaly ~kind:"serve" ~name:"snapshot-save-failed"
         ~attrs:[ ("path", Obs.Span.Str path) ] ());
    (session, Protocol.Miss)
  | None ->
    let app = generate ~build_dex:true spec in
    (open_with app, Protocol.Miss)

(* Resolve the resident session for a request.  Hit = same key and same
   spec; same key with a different spec (a new version behind one
   snapshot path) regenerates the program and delta-patches the resident
   engine in place; miss loads/builds and inserts under the LRU. *)
let resolve_session t ~snapshot spec =
  let key = cache_key t ~snapshot spec in
  match Enginecache.find t.cache key with
  | Some entry when entry.Enginecache.spec = spec ->
    (entry.Enginecache.session, Protocol.Hit)
  | Some entry ->
    let app = generate ~build_dex:false spec in
    let old = D.session_engine entry.Enginecache.session in
    (match Store.Snapshot.delta_of_engine old app.G.program with
     | Ok (_, rep) when Store.Snapshot.unchanged rep ->
       entry.Enginecache.spec <- spec;
       (entry.Enginecache.session, Protocol.Hit)
     | Ok (engine, _rep) ->
       let results = Option.bind snapshot (fun p -> load_results p) in
       let session =
         D.open_session ~cfg:(driver_cfg t) ~pool:t.pool ~engine ?results
           ~dex:app.G.dex ~manifest:app.G.manifest ()
       in
       Enginecache.repatch t.cache entry ~spec session;
       Obs.Flight.record ~kind:"serve" ~name:"resident-delta"
         ~attrs:[ ("key", Obs.Span.Str key) ] ();
       (session, Protocol.Delta)
     | Result.Error _ ->
       let session, state = load_session t ~snapshot spec in
       ignore (Enginecache.insert t.cache ~key ~spec session);
       (session, state))
  | None ->
    let session, state = load_session t ~snapshot spec in
    ignore (Enginecache.insert t.cache ~key ~spec session);
    (session, state)

(* -- request handlers ------------------------------------------------ *)

(* [t0] is the clock reading taken when a worker picked the request up. *)
let handle_analyze t ~t0 ~spec ~snapshot ~time_limit_ms =
  let session, state = resolve_session t ~snapshot spec in
  let budget =
    match time_limit_ms with
    | None -> None
    | Some _ -> Some { t.cfg.budget with Backdroid.Context.time_limit_ms }
  in
  let r = D.run_session ?budget session in
  let wall_us = now_us () -. t0 in
  Obs.Metrics.observe h_analyze_us wall_us;
  let text =
    Render.render ~app_name:(Appspec.app_name spec)
      ~seconds:(wall_us /. 1e6) r
  in
  Protocol.Analyzed { text; cache = state; wall_us }

let query_of ~kind ~operand =
  let module Q = Bytesearch.Query in
  match kind with
  | "invocation" -> Ok (Q.invocation operand)
  | "new-instance" -> Ok (Q.new_instance operand)
  | "const-class" -> Ok (Q.const_class operand)
  | "const-string" -> Ok (Q.const_string operand)
  | "field" -> Ok (Q.field_access operand)
  | "static-field" -> Ok (Q.static_field_access operand)
  | "class-use" -> Ok (Q.class_use operand)
  | "raw" -> Ok (Q.raw operand)
  | k ->
    Result.Error
      (Printf.sprintf
         "unknown query kind %S (one of: invocation, new-instance, \
          const-class, const-string, field, static-field, class-use, raw)"
         k)

let max_query_lines = 50

let handle_query t ~t0 ~spec ~snapshot ~kind ~operand =
  match query_of ~kind ~operand with
  | Result.Error m -> Protocol.Error m
  | Ok q ->
    let session, _state = resolve_session t ~snapshot spec in
    let engine = D.session_engine session in
    let hits = Bytesearch.Engine.run engine q in
    let wall_us = now_us () -. t0 in
    Obs.Metrics.observe h_query_us wall_us;
    let dex = Bytesearch.Engine.dexfile engine in
    let lines =
      List.filteri (fun i _ -> i < max_query_lines) hits
      |> List.map (fun (h : Bytesearch.Engine.hit) ->
             Printf.sprintf "%s:%d: %s"
               (Ir.Jsig.meth_to_string h.Bytesearch.Engine.owner)
               h.Bytesearch.Engine.line_no
               (String.trim (Dex.Dexfile.line_text dex h.line_no)))
    in
    Protocol.Queried { total = List.length hits; lines; wall_us }

let stats_json t =
  let cs = Enginecache.stats t.cache in
  let j = Obs.Jsonf.int_field in
  let p50_p90 name h =
    let h = Obs.Metrics.read h in
    [ Obs.Jsonf.num_field (name ^ "_p50") (Obs.Metrics.quantile h 0.5);
      Obs.Jsonf.num_field (name ^ "_p90") (Obs.Metrics.quantile h 0.9) ]
  in
  let b = Buffer.create 256 in
  Buffer.add_string b "{";
  Buffer.add_string b
    (Obs.Jsonf.num_field ~dec:1 "uptime_s"
       ((now_us () -. t.started_at) /. 1e6));
  Mutex.lock t.conn_mutex;
  let na = t.n_analyze and nq = t.n_query and ns = t.n_stats in
  let ne = t.n_errors in
  Mutex.unlock t.conn_mutex;
  List.iter
    (fun f ->
       Buffer.add_string b ", ";
       Buffer.add_string b f)
    ([ j "jobs" t.cfg.jobs;
      j "workers" (Parallel.Pool.workers t.pool);
      j "requests_analyze" na;
      j "requests_query" nq;
      j "requests_stats" ns;
      j "errors" ne;
      j "rejected" (Admission.rejected t.adm);
      j "inflight" (Admission.inflight t.adm);
      j "max_inflight" (Admission.max_inflight t.adm);
      j "cache_entries" cs.Enginecache.entries;
      j "cache_resident_bytes" cs.Enginecache.resident_bytes;
      j "cache_hits" cs.Enginecache.hits;
      j "cache_misses" cs.Enginecache.misses;
      j "cache_evictions" cs.Enginecache.evictions;
      j "cache_delta_patches" cs.Enginecache.delta_patches ]
     @ p50_p90 "pool_wait_us" h_pool_wait_us
     @ p50_p90 "admission_wait_us" h_admission_wait_us);
  Buffer.add_string b "}";
  Buffer.contents b

let count_request t = function
  | Protocol.Analyze _ ->
    Mutex.lock t.conn_mutex;
    t.n_analyze <- t.n_analyze + 1;
    Mutex.unlock t.conn_mutex
  | Protocol.Query _ ->
    Mutex.lock t.conn_mutex;
    t.n_query <- t.n_query + 1;
    Mutex.unlock t.conn_mutex
  | Protocol.Stats ->
    Mutex.lock t.conn_mutex;
    t.n_stats <- t.n_stats + 1;
    Mutex.unlock t.conn_mutex
  | Protocol.Shutdown -> ()

let count_error t =
  Mutex.lock t.conn_mutex;
  t.n_errors <- t.n_errors + 1;
  Mutex.unlock t.conn_mutex;
  Obs.Metrics.incr m_errors

let wake t =
  try ignore (Unix.write_substring t.wake_w "x" 0 1)
  with Unix.Unix_error _ -> ()

let request_stop t =
  if not (Atomic.exchange t.stopping true) then begin
    Obs.Flight.record ~kind:"serve" ~name:"shutdown-requested" ();
    wake t
  end

let dispatch t req =
  Obs.Metrics.incr m_requests;
  count_request t req;
  match req with
  | Protocol.Stats -> Protocol.Stats_json (stats_json t)
  | Protocol.Shutdown ->
    (* the connection handler acknowledges first, then triggers the stop —
       otherwise the drain races the response onto a shut-down socket *)
    Protocol.Shutdown_ok
  | Protocol.Analyze _ | Protocol.Query _ ->
    if Atomic.get t.stopping then Protocol.Rejected Protocol.Shutting_down
    else begin
      let asked = now_us () in
      let admitted = Admission.acquire t.adm in
      let submitted = now_us () in
      Obs.Metrics.observe h_admission_wait_us (submitted -. asked);
      if not admitted then begin
        Obs.Metrics.incr m_rejected;
        Obs.Flight.record ~kind:"serve" ~name:"rejected-busy" ();
        Protocol.Rejected Protocol.Busy
      end
      else
        Fun.protect
          ~finally:(fun () -> Admission.release t.adm)
          (fun () ->
             try
               on_pool t.pool ~submitted (fun t0 ->
                   match req with
                   | Protocol.Analyze { spec; snapshot; time_limit_ms } ->
                     handle_analyze t ~t0 ~spec ~snapshot ~time_limit_ms
                   | Protocol.Query { spec; snapshot; kind; operand } ->
                     handle_query t ~t0 ~spec ~snapshot ~kind ~operand
                   | Protocol.Stats | Protocol.Shutdown -> assert false)
             with
             | Reject m ->
               count_error t;
               Protocol.Error m
             | e ->
               count_error t;
               Obs.Flight.anomaly ~kind:"serve" ~name:"request-failed"
                 ~attrs:[ ("error", Obs.Span.Str (Printexc.to_string e)) ]
                 ();
               Protocol.Error (Printexc.to_string e))
    end

(* -- connections ----------------------------------------------------- *)

let track_conn t fd =
  Mutex.lock t.conn_mutex;
  t.conns <- fd :: t.conns;
  Mutex.unlock t.conn_mutex

let untrack_conn t fd =
  Mutex.lock t.conn_mutex;
  t.conns <- List.filter (fun c -> c <> fd) t.conns;
  Mutex.unlock t.conn_mutex

let handle_conn t fd =
  let rec loop () =
    match Protocol.recv_request fd with
    | `Eof -> ()
    | `Err m ->
      count_error t;
      (try Protocol.send_response fd (Protocol.Error ("bad request: " ^ m))
       with Unix.Unix_error _ -> ())
    | `Ok req ->
      let resp = dispatch t req in
      (match Protocol.send_response fd resp with
       | () ->
         (match req with
          | Protocol.Shutdown -> request_stop t
          | _ -> loop ())
       | exception Unix.Unix_error _ -> ())
  in
  Fun.protect
    ~finally:(fun () ->
        untrack_conn t fd;
        try Unix.close fd with Unix.Unix_error _ -> ())
    loop

(* -- accept loop / lifecycle ----------------------------------------- *)

let accept_loop t =
  let listen_fds = t.listeners in
  let all = t.wake_r :: listen_fds in
  while not (Atomic.get t.stopping) do
    match Unix.select all [] [] 0.5 with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | ready, _, _ ->
      List.iter
        (fun fd ->
           if fd = t.wake_r then begin
             try ignore (Unix.read fd (Bytes.create 16) 0 16)
             with Unix.Unix_error _ -> ()
           end
           else
             match Unix.accept ~cloexec:true fd with
             | conn, _ ->
               track_conn t conn;
               let th = Thread.create (fun () -> handle_conn t conn) () in
               Mutex.lock t.conn_mutex;
               t.threads <- th :: t.threads;
               Mutex.unlock t.conn_mutex
             | exception Unix.Unix_error _ -> ())
        ready
  done;
  (* drain: let in-flight requests finish, bounded by the drain deadline *)
  let deadline =
    Unix.gettimeofday () +. (t.cfg.drain_timeout_ms /. 1000.0)
  in
  while Admission.inflight t.adm > 0 && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.01
  done;
  let drained = Admission.inflight t.adm = 0 in
  (* close listeners first (no new connections), then force-close any
     connection still parked in a read so its thread can exit *)
  List.iter
    (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
    listen_fds;
  Mutex.lock t.conn_mutex;
  let conns = t.conns and threads = t.threads in
  Mutex.unlock t.conn_mutex;
  List.iter
    (fun fd -> try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
    conns;
  (* joining a thread whose request outlived the drain deadline would
     un-bound the shutdown; leave stragglers to die with the process *)
  if drained then List.iter Thread.join threads;
  (try Unix.close t.wake_r with Unix.Unix_error _ -> ());
  (try Unix.close t.wake_w with Unix.Unix_error _ -> ());
  (try Unix.unlink t.cfg.socket with Unix.Unix_error _ | Sys_error _ -> ());
  Obs.Flight.record ~kind:"serve" ~name:"shutdown-complete" ()

let start cfg =
  let cfg = { cfg with jobs = max 1 cfg.jobs } in
  match claim_socket cfg.socket with
  | Result.Error m -> Result.Error m
  | Ok () ->
    (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
     with Invalid_argument _ -> ());
    let uds = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    (try
       Unix.bind uds (Unix.ADDR_UNIX cfg.socket);
       Unix.listen uds 64
     with e ->
       (try Unix.close uds with Unix.Unix_error _ -> ());
       raise e);
    let tcp_fd =
      match cfg.tcp with
      | None -> []
      | Some (host, port) ->
        let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.setsockopt fd Unix.SO_REUSEADDR true;
        let addr =
          try Unix.inet_addr_of_string host
          with Failure _ -> Unix.inet_addr_loopback
        in
        Unix.bind fd (Unix.ADDR_INET (addr, port));
        Unix.listen fd 64;
        [ fd ]
    in
    let wake_r, wake_w = Unix.pipe ~cloexec:true () in
    let t =
      { cfg;
        (* no connection thread helps drain, so [jobs] workers need
           [jobs + 1] *)
        pool = Parallel.Pool.create ~jobs:(cfg.jobs + 1);
        cache =
          Enginecache.create ~max_entries:cfg.max_resident
            ~max_bytes:(int_of_float (cfg.max_resident_mb *. 1048576.0)) ();
        adm =
          Admission.create ~max_inflight:cfg.max_inflight
            ~queue_timeout_ms:cfg.queue_timeout_ms;
        ruleset_hash = Rules.Rule.hash_list cfg.rules;
        listeners = uds :: tcp_fd;
        wake_r; wake_w;
        stopping = Atomic.make false;
        started_at = Obs.Span.now_us ();
        conn_mutex = Mutex.create ();
        conns = []; threads = []; accept_thread = None;
        n_analyze = 0; n_query = 0; n_stats = 0; n_errors = 0 }
    in
    t.accept_thread <- Some (Thread.create (fun () -> accept_loop t) ());
    Obs.Flight.record ~kind:"serve" ~name:"listening"
      ~attrs:[ ("socket", Obs.Span.Str cfg.socket);
               ("jobs", Obs.Span.Int cfg.jobs) ]
      ();
    Ok t

let stop t = request_stop t

let wait t =
  (match t.accept_thread with
   | Some th -> Thread.join th
   | None -> ());
  Parallel.Pool.shutdown t.pool

let run cfg =
  match start cfg with
  | Result.Error m -> Result.Error m
  | Ok t ->
    let on_signal _ = request_stop t in
    (try
       Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
       Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal)
     with Invalid_argument _ -> ());
    wait t;
    Ok ()
