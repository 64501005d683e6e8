(* BackDroid command-line interface.

   Subcommands:
     generate    - generate a synthetic app and print its stats / dex text
     analyze     - run BackDroid on a generated app and print the reports
     compare     - run BackDroid and the whole-app baseline side by side
     experiments - regenerate the paper's tables and figures *)

open Cmdliner
module G = Appgen.Generator
module Shape = Appgen.Shape
module Sinks = Framework.Sinks

let shape_conv =
  let parse s =
    match List.find_opt (fun sh -> Shape.to_string sh = s) Shape.all with
    | Some sh -> Ok sh
    | None ->
      Error
        (`Msg
           (Printf.sprintf "unknown shape %S (one of: %s)" s
              (String.concat ", " (List.map Shape.to_string Shape.all))))
  in
  Arg.conv (parse, fun ppf sh -> Fmt.string ppf (Shape.to_string sh))

let sink_names = Serve.Appspec.sink_names

let sink_conv =
  let parse s =
    match List.assoc_opt s sink_names with
    | Some sink -> Ok sink
    | None ->
      Error
        (`Msg
           (Printf.sprintf "unknown sink %S (one of: %s)" s
              (String.concat ", " (List.map fst sink_names))))
  in
  Arg.conv (parse, fun ppf (s : Sinks.t) -> Fmt.string ppf s.name)

let seed_t =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Generator seed.")

let jobs_t =
  Arg.(
    value
    & opt int (Parallel.Pool.default_jobs ())
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Worker-pool width.  For experiments: $(docv) apps of the grid \
           analysed at once, counting the calling domain, which helps.  For \
           the daemon: $(docv) analysis domains, each running one request, \
           beside domain 0, which only serves the sockets.  1 = sequential; \
           results are identical either way.  Defaults to all cores but \
           one.")

let verbose_t =
  Arg.(
    value & flag
    & info [ "v"; "verbose" ]
        ~doc:"Trace the bytecode searches guiding the analysis.")

let setup_logs verbose =
  Logs.set_reporter (Logs_fmt.reporter ());
  if verbose then Logs.Src.set_level Backdroid.Log.src (Some Logs.Debug)
  else Logs.Src.set_level Backdroid.Log.src (Some Logs.Warning)

let size_t =
  Arg.(
    value & opt float 10.0
    & info [ "size-mb" ] ~docv:"MB"
        ~doc:"Approximate app size in MB-equivalents, in (0, 1024].")

let shapes_t =
  Arg.(
    value
    & opt_all (pair ~sep:':' shape_conv sink_conv) []
    & info [ "plant" ] ~docv:"SHAPE:SINK"
        ~doc:"Plant a sink flow, e.g. --plant callback:cipher (repeatable).")

let insecure_t =
  Arg.(
    value & flag
    & info [ "insecure" ] ~doc:"Plant insecure parameter values (default secure).")

(* The one-shot CLI and the daemon build their apps from the same
   {!Serve.Appspec}, so a served analysis sees the identical program.
   Sinks travel by their registry key (["cipher"]), not their display
   label (["crypto-cipher"]) — only the key resolves on the other end. *)
let sink_key (sink : Sinks.t) =
  match List.find_opt (fun (_, s) -> s = sink) sink_names with
  | Some (key, _) -> key
  | None -> sink.Sinks.name

let spec_of ?(mutate_pct = 0.0) ~seed ~size_mb ~plants ~insecure () =
  { Serve.Appspec.seed; size_mb; insecure; mutate_pct;
    plants =
      List.map
        (fun (shape, sink) -> (Shape.to_string shape, sink_key sink))
        plants }

let make_app ?(build_dex = true) ?mutate_pct ~seed ~size_mb ~plants
    ~insecure () =
  match
    Serve.Appspec.generate ~build_dex
      (spec_of ?mutate_pct ~seed ~size_mb ~plants ~insecure ())
  with
  | Ok app -> app
  | Error e ->
    (* the typed flags only produce known names, so this is a size or a
       mutation fraction out of range *)
    Printf.eprintf "error: %s\n" e;
    exit 1

(* --- generate --- *)

let generate_cmd =
  let dump_dex =
    Arg.(value & flag & info [ "dump-dex" ] ~doc:"Print the dexdump plaintext.")
  in
  let run seed size_mb plants insecure dump_dex =
    let app = make_app ~seed ~size_mb ~plants ~insecure () in
    Printf.printf "app %s: %d classes, %d methods, %d stmts, %d dex lines\n"
      app.G.name
      (Ir.Program.class_count app.G.program)
      (Ir.Program.method_count app.G.program)
      app.G.size_stmts
      (Dex.Dexfile.line_count app.G.dex);
    List.iter
      (fun (p : Appgen.Templates.planted) ->
         Printf.printf "  planted %s sink (%s) insecure=%b reachable=%b in %s\n"
           p.sink.Sinks.name
           (Shape.to_string p.shape) p.insecure p.reachable p.sink_class)
      app.G.planted;
    if dump_dex then print_string (Dex.Dexfile.to_string app.G.dex)
  in
  Cmd.v (Cmd.info "generate" ~doc:"Generate a synthetic app")
    Term.(const run $ seed_t $ size_t $ shapes_t $ insecure_t $ dump_dex)

(* --- observability surface --- *)

let profile_t =
  Arg.(
    value & opt (some string) None
    & info [ "profile" ] ~docv:"FILE"
        ~doc:
          "Record hierarchical spans for the whole run and export them as \
           Chrome trace-event JSON to $(docv) (open in chrome://tracing or \
           Perfetto).  Also prints a per-phase self-time summary.")

let metrics_t =
  Arg.(
    value & opt ~vopt:(Some "-") (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:
          "Print the merged counter/histogram snapshot after the run \
           (default: a table on stdout); with $(docv), write it as JSON \
           instead.")

let metrics_format_t =
  Arg.(
    value
    & opt (enum [ ("json", `Json); ("openmetrics", `Openmetrics) ]) `Json
    & info [ "metrics-format" ] ~docv:"FORMAT"
        ~doc:
          "Serialization for $(b,--metrics) $(i,FILE): $(b,json) (default) \
           or $(b,openmetrics) — the Prometheus/OpenMetrics text \
           exposition, counters as counter families and histograms as \
           summaries with p50/p90/p99 quantiles.")

let flight_t =
  Arg.(
    value & opt (some string) None
    & info [ "flight" ] ~docv:"FILE"
        ~doc:
          "Dump the always-on flight recorder (each domain's newest 512 \
           events) to $(docv) after the run, as a Chrome trace-event JSON \
           object with the anomaly counts and a metrics snapshot (open in \
           chrome://tracing or Perfetto).  Without this flag \
           the recorder still runs, and anomalies — partial slices, \
           deadline hits, snapshot warnings, crashes — auto-dump it to \
           $(b,backdroid.flight.json); anomaly-free runs write nothing.")

let explain_t =
  Arg.(
    value & flag
    & info [ "explain" ]
        ~doc:
          "Print each sink report's provenance ledger under its verdict: \
           resolver strategies taken with caller counts, searches issued \
           per category, budget spent vs cap, SSG size and wall time.")

(* Install the span recorder when [--profile] asks for one; metrics
   record by default (they are integer bumps on per-domain shards). *)
let setup_obs ~profile =
  Option.map (fun _ -> Obs.Span.install_recorder ()) profile

(* The driver's end-of-run counters live in the flight ring, as one
   "counters" event with every driver.* series as an integer attribute;
   surface them on the profile timeline as Chrome 'C' events. *)
let flight_counters () =
  List.concat_map
    (fun (e : Obs.Span.span) ->
       if e.cat <> "counters" then []
       else
         List.filter_map
           (fun (name, v) ->
              match v with
              | Obs.Span.Int n ->
                Some
                  { Obs.Chrome.c_ts_us = e.t0_us; c_pid = e.pid;
                    c_name = name; c_value = float_of_int n }
              | _ -> None)
           e.attrs)
    (Obs.Flight.events ())

let finish_obs ~profile ~metrics ~metrics_format ~app_name recorder =
  (match profile, recorder with
   | Some path, Some rec_ ->
     Obs.Span.set_sink None;
     let spans = Obs.Ring.snapshot rec_ in
     let n =
       Obs.Chrome.write ~pid_names:[ (0, app_name) ]
         ~counters:(flight_counters ()) path spans
     in
     (* the recorder keeps each domain's newest spans *)
     let d = Obs.Ring.overwritten rec_ in
     Printf.printf "profile: %d spans (%d events) -> %s%s\n"
       (List.length spans) n path
       (if d > 0 then Printf.sprintf " (%d overwritten)" d else "");
     print_string (Obs.Summary.render (Obs.Summary.compute spans))
   | _ -> ());
  match metrics with
  | None -> ()
  | Some "-" ->
    (match metrics_format with
     | `Json ->
       print_string "metrics:\n";
       print_string (Obs.Metrics.render_table (Obs.Metrics.snapshot ()))
     | `Openmetrics ->
       print_string (Obs.Export.openmetrics (Obs.Metrics.snapshot ())))
  | Some path ->
    (match metrics_format with
     | `Json -> Obs.Metrics.write_json path (Obs.Metrics.snapshot ())
     | `Openmetrics ->
       Obs.Io.write_string path (Obs.Export.openmetrics (Obs.Metrics.snapshot ())));
    Printf.printf "metrics -> %s\n" path

(* --- analyze --- *)

let analyze_cmd =
  let dump_ssg =
    Arg.(value & flag & info [ "dump-ssg" ] ~doc:"Print each sink's SSG.")
  in
  let time_limit_t =
    Arg.(
      value & opt (some float) None
      & info [ "time-limit-ms" ] ~docv:"MS"
          ~doc:
            "Per-sink wall-clock slicing budget; exhausting it yields a \
             partial (not silently truncated) analysis.")
  in
  let subclass_aware =
    Arg.(
      value & flag
      & info [ "subclass-aware" ]
          ~doc:"Hierarchy-aware initial sink search (fixes the Sec. VI-C FNs).")
  in
  let save_index_t =
    Arg.(
      value & opt ~vopt:(Some "auto") (some string) None
      & info [ "save-index" ] ~docv:"PATH"
          ~doc:
            "After the analysis, save the preprocessing snapshot (symbol \
             table, hit arena, all postings, class map) with this run's \
             per-sink results and rule-set stamp to $(docv); without a \
             value, an auto path derived from the app id and snapshot \
             format version in the current directory.  A failed save exits \
             1.")
  in
  let load_index_t =
    Arg.(
      value & opt ~vopt:(Some "auto") (some string) None
      & info [ "load-index" ] ~docv:"PATH"
          ~doc:
            "Warm start: map the preprocessing snapshot at $(docv) (or the \
             auto path, without a value) instead of disassembling and \
             indexing, and diff it against the generated app by per-class \
             content hash.  When no class changed, prints $(i,index: \
             loaded) and analyses the app in full on the loaded index.  \
             Otherwise re-disassembles and re-indexes only the changed \
             classes, prints $(i,index: delta-patched) and the \
             $(i,delta:) report, and replays the snapshot's persisted \
             per-sink results where their slice footprint is untouched.  \
             A missing or refused file prints a warning on stderr and the \
             app is analysed cold.  Either way the analysis output is \
             identical to a cold run.")
  in
  let mutate_pct_t =
    Arg.(
      value & opt float 0.0
      & info [ "mutate-pct" ] ~docv:"FRACTION"
          ~doc:
            "Mutate this fraction, in [0, 1], of the app's filler classes \
             after generation (deterministic; at least one class when \
             positive) — \
             simulates analysing version N+1 of the same app, e.g. with \
             $(b,--load-index) of version N's snapshot.")
  in
  let rules_t =
    Arg.(
      value & opt (some string) None
      & info [ "rules" ] ~docv:"FILE"
          ~doc:
            "Load the detection-rule set from $(docv) (s-expression rule \
             syntax; see the README) instead of the built-in paper rules.")
  in
  let run seed size_mb plants insecure dump_ssg subclass_aware verbose
      time_limit_ms save_index load_index mutate_pct
      rules_file profile metrics metrics_format flight explain =
    setup_logs verbose;
    (* flight recorder: always recording; anomalies (and crashes, via the
       handler) auto-dump to the armed path.  Anomaly-free runs without
       --flight never touch the file. *)
    Obs.Flight.install_crash_handler ();
    Obs.Flight.arm_auto_dump
      (Option.value flight ~default:"backdroid.flight.json");
    let rules =
      match rules_file with
      | None -> Backdroid.Driver.default_config.Backdroid.Driver.rules
      | Some path ->
        (match Rules.Parse.load path with
         | Ok rules ->
           Printf.printf "rules: %d loaded from %s\n" (List.length rules) path;
           rules
         | Error e ->
           Printf.eprintf "error: %s\n" (Rules.Parse.error_to_string e);
           exit 1)
    in
    let recorder = setup_obs ~profile in
    let app =
      make_app ~build_dex:false ~mutate_pct ~seed ~size_mb ~plants ~insecure ()
    in
    let index_path = function
      | "auto" -> Store.Snapshot.default_path ~dir:"." ~app_id:app.G.name
      | p -> p
    in
    (* warm start: open the snapshot for the (possibly mutated) program;
       only a patched one replays its persisted per-sink results *)
    let engine, results =
      match load_index with
      | None -> (None, None)
      | Some p ->
        let path = index_path p in
        let engine, opened =
          Store.Warm.open_ ~path
            ~disassemble:(fun () -> G.disassemble app)
            app.G.program
        in
        ( Some engine,
          match opened with
          | Store.Warm.Loaded ->
            Printf.printf "index: loaded %s\n" path;
            None
          | Store.Warm.Patched (rep, results) ->
            Printf.printf "index: delta-patched %s\ndelta: %s\n" path
              (Store.Snapshot.delta_report_to_string rep);
            Option.iter
              (fun rc ->
                 Printf.printf "delta: %d persisted sink result(s)\n"
                   (Backdroid.Resultcache.length rc))
              results;
            results
          | Store.Warm.Cold err ->
            Printf.eprintf "warning: cannot load index %s: %s; analysing cold\n%!"
              path
              (match err with
               | None -> "no such file"
               | Some e -> Store.Codec.error_to_string e);
            None )
    in
    let dex = if Option.is_none engine then G.disassemble app else app.G.dex in
    let cfg =
      { Backdroid.Driver.default_config with
        Backdroid.Driver.rules;
        subclass_aware_initial_search = subclass_aware;
        budget =
          { Backdroid.Context.default_budget with
            Backdroid.Context.time_limit_ms } }
    in
    let t0 = Unix.gettimeofday () in
    let session =
      Backdroid.Driver.open_session ~cfg ?engine ?results ~dex
        ~manifest:app.G.manifest ()
    in
    let r = Backdroid.Driver.run_session session in
    let dt = Unix.gettimeofday () -. t0 in
    (match save_index with
     | None -> ()
     | Some p ->
       let path = index_path p in
       (match
          Store.Warm.save ~path ~ruleset_hash:(Rules.Rule.hash_list rules)
            (Backdroid.Driver.session_engine session) r
        with
        | Ok (bytes, n) ->
          Printf.printf "index: saved %s (%d bytes, %d cached result(s))\n"
            path bytes n
        | Error m ->
          Printf.eprintf "error: cannot save index %s: %s\n" path m;
          exit 1));
    (* served responses render through the same [Serve.Render] formats, so
       daemon output is byte-identical to this one-shot path *)
    print_endline (Serve.Render.analyzed_line ~app_name:app.G.name ~seconds:dt r);
    List.iter
      (fun (rep : Backdroid.Driver.sink_report) ->
         print_endline (Serve.Render.report_line rep);
         if explain then print_string (Backdroid.Provenance.render rep.prov);
         if dump_ssg then
           match rep.ssg with
           | Some ssg -> Fmt.pr "%a" Backdroid.Ssg.pp ssg
           | None -> ())
      r.Backdroid.Driver.reports;
    print_endline (Serve.Render.stats_line r);
    (match flight with
     | None -> ()
     | Some path ->
       Obs.Flight.write ~note:"on-demand" path;
       Printf.printf "flight: %d events -> %s\n" (Obs.Flight.length ()) path);
    finish_obs ~profile ~metrics ~metrics_format ~app_name:app.G.name recorder
  in
  Cmd.v (Cmd.info "analyze" ~doc:"Run BackDroid on a generated app")
    Term.(
      const run $ seed_t $ size_t $ shapes_t $ insecure_t $ dump_ssg
      $ subclass_aware $ verbose_t
      $ time_limit_t $ save_index_t $ load_index_t $ mutate_pct_t $ rules_t $ profile_t $ metrics_t $ metrics_format_t
      $ flight_t $ explain_t)

(* --- compare --- *)

let compare_cmd =
  let timeout_t =
    Arg.(
      value & opt float 2.0
      & info [ "timeout" ] ~docv:"SECONDS"
          ~doc:"Baseline timeout (stands in for the paper's 300 minutes).")
  in
  let run seed size_mb plants insecure timeout_s =
    let app = make_app ~seed ~size_mb ~plants ~insecure () in
    let bd, _ = Evalharness.Runner.run_backdroid app in
    let am, _ = Evalharness.Runner.run_amandroid ~timeout_s app in
    Printf.printf "%-14s %-10s %-10s %-8s\n" "tool" "time(s)" "insecure" "status";
    let status (m : Evalharness.Runner.measurement) =
      if m.timed_out then "TIMEOUT" else if m.errored then "ERROR" else "ok"
    in
    List.iter
      (fun (m : Evalharness.Runner.measurement) ->
         Printf.printf "%-14s %-10.3f %-10d %-8s\n"
           (Evalharness.Runner.tool_name m.tool)
           m.seconds m.insecure (status m))
      [ bd; am ]
  in
  Cmd.v (Cmd.info "compare" ~doc:"Run BackDroid and the baseline side by side")
    Term.(const run $ seed_t $ size_t $ shapes_t $ insecure_t $ timeout_t)

(* --- rules --- *)

let rules_cmd =
  let set_t =
    Arg.(
      value
      & opt (enum [ ("primary", `Primary); ("catalog", `Catalog);
                    ("extended", `Extended) ])
          `Extended
      & info [ "set" ] ~docv:"SET"
          ~doc:
            "Which built-in rule set to print: $(b,primary) (the paper's \
             two misuse classes), $(b,catalog) (plus the auxiliary \
             report-only sinks) or $(b,extended) (plus the WebView / SQL / \
             intent-redirection families).")
  in
  let check_t =
    Arg.(
      value & opt (some string) None
      & info [ "check" ] ~docv:"FILE"
          ~doc:
            "Validate the rule file at $(docv) instead of printing a \
             built-in set; exits non-zero with a positioned diagnostic on \
             the first error.")
  in
  let run set check =
    match check with
    | Some path ->
      (match Rules.Parse.load path with
       | Ok rules ->
         Printf.printf "%s: %d rule(s) ok (hash %x)\n" path (List.length rules)
           (Rules.Rule.hash_list rules)
       | Error e ->
         Printf.eprintf "error: %s\n" (Rules.Parse.error_to_string e);
         exit 1)
    | None ->
      let rules =
        match set with
        | `Primary -> Rules.Builtin.primary
        | `Catalog -> Rules.Builtin.catalog
        | `Extended -> Rules.Builtin.extended
      in
      print_string (Rules.Rule.list_to_source rules)
  in
  Cmd.v
    (Cmd.info "rules"
       ~doc:"Print the built-in detection rules (or validate a rule file)")
    Term.(const run $ set_t $ check_t)

(* --- experiments --- *)

let experiments_cmd =
  let quick =
    Arg.(
      value & flag
      & info [ "quick" ] ~doc:"Small corpus and scaled-down app sizes.")
  in
  let count_t =
    Arg.(
      value & opt (some int) None
      & info [ "count" ] ~docv:"N" ~doc:"Corpus size (default 144).")
  in
  let snapshot_dir_t =
    Arg.(
      value & opt (some string) None
      & info [ "snapshot-dir" ] ~docv:"DIR"
          ~doc:
            "Warm-cache mode: save each app's preprocessing snapshot into \
             $(docv) (made if its parent exists) after its first analysis \
             and map it back on the next run, skipping disassembly and \
             index construction.")
  in
  let run quick count jobs snapshot_dir =
    let opts =
      if quick then
        { Evalharness.Experiments.default_opts with
          Evalharness.Experiments.scale = 0.3; count = 30; timeout_s = 0.6;
          flowdroid_timeout_s = 0.6 }
      else Evalharness.Experiments.default_opts
    in
    let opts =
      match count with
      | Some c -> { opts with Evalharness.Experiments.count = c }
      | None -> opts
    in
    let opts = { opts with Evalharness.Experiments.jobs; snapshot_dir } in
    Evalharness.Experiments.run_all ~opts ()
  in
  Cmd.v
    (Cmd.info "experiments" ~doc:"Regenerate the paper's tables and figures")
    Term.(const run $ quick $ count_t $ jobs_t $ snapshot_dir_t)

(* --- daemon --- *)

let socket_t =
  Arg.(
    value & opt string "backdroid.sock"
    & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket path.")

let daemon_cmd =
  let tcp_t =
    Arg.(
      value & opt (some int) None
      & info [ "tcp" ] ~docv:"PORT"
          ~doc:"Additionally listen on 127.0.0.1:$(docv).")
  in
  let max_resident_t =
    Arg.(
      value & opt int 4
      & info [ "max-resident" ] ~docv:"N"
          ~doc:"Hot-engine LRU: keep at most $(docv) engines resident.")
  in
  let max_resident_mb_t =
    Arg.(
      value & opt float 512.0
      & info [ "max-resident-mb" ] ~docv:"MB"
          ~doc:
            "Hot-engine LRU: evict least-recently-used engines once the \
             resident estimate exceeds $(docv) MB.")
  in
  let max_inflight_t =
    Arg.(
      value & opt (some int) None
      & info [ "max-inflight" ] ~docv:"N"
          ~doc:
            "Admission control: at most $(docv) analyze/query requests \
             in flight (default 2*jobs).")
  in
  let queue_timeout_t =
    Arg.(
      value & opt float 200.0
      & info [ "queue-timeout-ms" ] ~docv:"MS"
          ~doc:
            "Admission control: reject (typed, not queued forever) a \
             request that cannot get a slot within $(docv) ms.")
  in
  let drain_timeout_t =
    Arg.(
      value & opt float 5000.0
      & info [ "drain-timeout-ms" ] ~docv:"MS"
          ~doc:
            "Graceful shutdown: wait up to $(docv) ms for in-flight \
             requests before exiting.")
  in
  let rules_t =
    Arg.(
      value & opt (some string) None
      & info [ "rules" ] ~docv:"FILE"
          ~doc:"Load the daemon's detection-rule set from $(docv).")
  in
  let run socket tcp jobs verbose max_resident max_resident_mb max_inflight
      queue_timeout_ms drain_timeout_ms rules_file =
    setup_logs verbose;
    Obs.Flight.install_crash_handler ();
    Obs.Flight.arm_auto_dump "backdroidd.flight.json";
    let rules =
      match rules_file with
      | None -> Backdroid.Driver.default_config.Backdroid.Driver.rules
      | Some path ->
        (match Rules.Parse.load path with
         | Ok rules -> rules
         | Error e ->
           Printf.eprintf "error: %s\n" (Rules.Parse.error_to_string e);
           exit 1)
    in
    let cfg =
      { Serve.Server.default_config with
        Serve.Server.socket;
        tcp = Option.map (fun p -> ("127.0.0.1", p)) tcp;
        jobs;
        max_resident;
        max_resident_mb;
        max_inflight = Option.value max_inflight ~default:(max 2 (2 * jobs));
        queue_timeout_ms;
        drain_timeout_ms;
        rules }
    in
    Printf.printf
      "backdroidd: listening on %s (jobs=%d, max-resident=%d)\n%!" socket
      jobs max_resident;
    match Serve.Server.run cfg with
    | Ok () -> Printf.printf "backdroidd: shut down cleanly\n%!"
    | Error m ->
      Printf.eprintf "error: %s\n" m;
      exit 1
  in
  Cmd.v
    (Cmd.info "daemon"
       ~doc:
         "Run backdroidd: a resident analysis service keeping hot engines \
          mapped behind an LRU and serving analyze/query/stats/shutdown \
          over a Unix-domain socket")
    Term.(
      const run $ socket_t $ tcp_t $ jobs_t $ verbose_t $ max_resident_t
      $ max_resident_mb_t $ max_inflight_t $ queue_timeout_t
      $ drain_timeout_t $ rules_t)

(* --- client --- *)

let snapshot_t =
  Arg.(
    value & opt (some string) None
    & info [ "snapshot" ] ~docv:"PATH"
        ~doc:
          "Have the daemon serve this app from the snapshot at $(docv), \
           opened on a miss and written after the session's first \
           analysis, with its results, when missing, refused or stale.")

let mutate_pct_client_t =
  Arg.(
    value & opt float 0.0
    & info [ "mutate-pct" ] ~docv:"FRACTION"
        ~doc:"Mutate this fraction, in [0, 1], of filler classes \
              (version N+1).")

let client_fail m =
  Printf.eprintf "error: %s\n" m;
  exit 1

let client_call socket req =
  match
    Serve.Client.with_conn ~socket (fun c -> Serve.Client.call c req)
  with
  | Ok resp -> resp
  | Error m -> client_fail m

let client_analyze_cmd =
  let timing_t =
    Arg.(
      value & flag
      & info [ "timing" ]
          ~doc:
            "Print the served latency and cache state to stderr (stdout \
             stays byte-identical to one-shot $(b,analyze)).")
  in
  let time_limit_t =
    Arg.(
      value & opt (some float) None
      & info [ "time-limit-ms" ] ~docv:"MS"
          ~doc:"Per-sink wall-clock slicing budget for this request.")
  in
  let run socket seed size_mb plants insecure mutate_pct snapshot
      time_limit_ms timing =
    let spec = spec_of ~mutate_pct ~seed ~size_mb ~plants ~insecure () in
    match
      client_call socket
        (Serve.Protocol.Analyze { spec; snapshot; time_limit_ms })
    with
    | Serve.Protocol.Analyzed { text; cache; wall_us } ->
      print_string text;
      if timing then
        Printf.eprintf "served: %s in %.1fus\n"
          (Serve.Protocol.cache_to_string cache)
          wall_us
    | Serve.Protocol.Rejected r ->
      Printf.eprintf "rejected: %s\n" (Serve.Protocol.reject_to_string r);
      exit 2
    | Serve.Protocol.Error m -> client_fail m
    | _ -> client_fail "unexpected response"
  in
  Cmd.v (Cmd.info "analyze" ~doc:"Analyze an app through the daemon")
    Term.(
      const run $ socket_t $ seed_t $ size_t $ shapes_t $ insecure_t
      $ mutate_pct_client_t $ snapshot_t $ time_limit_t $ timing_t)

let client_query_cmd =
  let kind_t =
    Arg.(
      value & opt string "invocation"
      & info [ "kind" ] ~docv:"KIND"
          ~doc:
            "Query kind: invocation, new-instance, const-class, \
             const-string, field, static-field, class-use or raw.")
  in
  let operand_t =
    Arg.(
      required & pos 0 (some string) None
      & info [] ~docv:"OPERAND" ~doc:"The query operand.")
  in
  let run socket seed size_mb plants insecure mutate_pct snapshot kind
      operand =
    let spec = spec_of ~mutate_pct ~seed ~size_mb ~plants ~insecure () in
    match
      client_call socket
        (Serve.Protocol.Query { spec; snapshot; kind; operand })
    with
    | Serve.Protocol.Queried { total; lines; wall_us } ->
      Printf.printf "%d hit(s) in %.1fus\n" total wall_us;
      List.iter print_endline lines;
      if total > List.length lines then
        Printf.printf "  ... (%d more)\n" (total - List.length lines)
    | Serve.Protocol.Rejected r ->
      Printf.eprintf "rejected: %s\n" (Serve.Protocol.reject_to_string r);
      exit 2
    | Serve.Protocol.Error m -> client_fail m
    | _ -> client_fail "unexpected response"
  in
  Cmd.v
    (Cmd.info "query"
       ~doc:"Run one bytecode search against the daemon's resident engine")
    Term.(
      const run $ socket_t $ seed_t $ size_t $ shapes_t $ insecure_t
      $ mutate_pct_client_t $ snapshot_t $ kind_t $ operand_t)

let client_stats_cmd =
  let run socket =
    match client_call socket Serve.Protocol.Stats with
    | Serve.Protocol.Stats_json s -> print_endline s
    | Serve.Protocol.Error m -> client_fail m
    | _ -> client_fail "unexpected response"
  in
  Cmd.v (Cmd.info "stats" ~doc:"Print the daemon's counters as JSON")
    Term.(const run $ socket_t)

let client_shutdown_cmd =
  let run socket =
    match client_call socket Serve.Protocol.Shutdown with
    | Serve.Protocol.Shutdown_ok -> print_endline "shutdown: ok"
    | Serve.Protocol.Error m -> client_fail m
    | _ -> client_fail "unexpected response"
  in
  Cmd.v
    (Cmd.info "shutdown" ~doc:"Ask the daemon to drain and exit cleanly")
    Term.(const run $ socket_t)

let client_cmd =
  Cmd.group
    (Cmd.info "client"
       ~doc:"Talk to a running backdroidd over its Unix-domain socket")
    [ client_analyze_cmd; client_query_cmd; client_stats_cmd;
      client_shutdown_cmd ]

let () =
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  exit
    (Cmd.eval
       (Cmd.group ~default
          (Cmd.info "backdroid" ~version:"1.0.0"
             ~doc:
               "Targeted inter-procedural analysis of (synthetic) Android apps \
                via on-the-fly bytecode search")
          [ generate_cmd; analyze_cmd; compare_cmd; rules_cmd;
            experiments_cmd; daemon_cmd; client_cmd ]))
