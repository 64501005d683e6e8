(** One function per table / figure of the paper's evaluation, each printing
    the measured series next to the numbers the paper reports.

    Time scaling: wall-clock seconds on our synthetic substrate stand in for
    the paper's minutes on real APKs.  The timeout given to the whole-app
    baselines plays the paper's 300-minute timeout, so
    [minutes_per_second = 300 / timeout_s] converts measured seconds into
    "paper-minute equivalents" for the distribution buckets. *)

module G = Appgen.Generator
module Corpus = Appgen.Corpus
module Shape = Appgen.Shape

type opts = {
  scale : float;        (** app-size scale (1.0 = calibrated sizes) *)
  count : int;          (** corpus size (paper: 144) *)
  timeout_s : float;    (** stands in for the 300-minute Amandroid timeout *)
  flowdroid_timeout_s : float;  (** stands in for the 5-hour Fig. 1 timeout *)
  seed : int;
  jobs : int;           (** per-app fan-out width (1 = sequential) *)
  snapshot_dir : string option;
      (** warm-cache mode: per-app preprocessing snapshots ([.bdix]) are
          saved here after an app's first analysis and reused on the next
          run *)
}

let default_opts =
  { scale = 1.0; count = 144; timeout_s = 0.3; flowdroid_timeout_s = 0.3;
    seed = 42; jobs = 1; snapshot_dir = None }

let minutes_per_second opts = 300.0 /. opts.timeout_s

(* ------------------------------------------------------------------ *)
(* Corpus run: one generate-analyze pass per app, apps discarded after *)

type corpus_run = {
  backdroid : Runner.measurement list;
  amandroid : Runner.measurement list;
  flowdroid : Runner.measurement list;
}

(** One generate-analyze pass per app.  With [opts.jobs > 1] the apps of the
    grid are fanned out over a domain pool, [opts.jobs] at a time; each app
    is still generated, analysed and timed entirely within one task, so the
    per-app measurements are the same as in sequential mode (timings aside)
    and come back in corpus order. *)
let run_corpus ?(progress = fun _ -> ()) opts =
  let configs = Corpus.modern_144 ~scale:opts.scale ~seed:opts.seed ~count:opts.count () in
  let n = List.length configs in
  let progress_lock = Mutex.create () in
  let started = Atomic.make 0 in
  let completed = Atomic.make 0 in
  let t_start = Unix.gettimeofday () in
  (* Completion heartbeat: elapsed time plus a naive remaining-time estimate
     from the mean per-app cost so far.  Serialized by [progress_lock] with
     the start lines. *)
  let heartbeat () =
    let d = 1 + Atomic.fetch_and_add completed 1 in
    let elapsed = Unix.gettimeofday () -. t_start in
    let eta = elapsed /. float_of_int d *. float_of_int (n - d) in
    Mutex.lock progress_lock;
    progress
      (Printf.sprintf "[%d/%d done] %.1fs elapsed, ~%.1fs remaining" d n
         elapsed eta);
    Mutex.unlock progress_lock
  in
  (* Warm-cache mode: with [opts.snapshot_dir], each app opens its
     snapshot through {!Store.Warm}, and every one but a loaded one is
     saved after the timed analysis, with its results.  A patched one
     replays nothing: the tables time full analyses.  Snapshots are
     per-app files, so pool domains never contend for one.  The directory
     is made if its parent exists. *)
  Option.iter
    (fun dir ->
       if not (Sys.file_exists dir) then
         try Unix.mkdir dir 0o755 with Unix.Unix_error _ -> ())
    opts.snapshot_dir;
  let ruleset_hash =
    Rules.Rule.hash_list Backdroid.Driver.default_config.Backdroid.Driver.rules
  in
  let analyze_backdroid (cfg : G.config) =
    match opts.snapshot_dir with
    | None ->
      let app = G.generate cfg in
      (app, fst (Runner.run_backdroid app))
    | Some dir ->
      let path = Store.Snapshot.default_path ~dir ~app_id:cfg.G.name in
      let app = G.generate ~build_dex:false cfg in
      let engine, opened =
        Store.Warm.open_ ~path
          ~disassemble:(fun () -> G.disassemble app)
          app.G.program
      in
      let stale =
        match opened with
        | Store.Warm.Loaded -> false
        | Store.Warm.Patched (rep, _) ->
          Printf.eprintf "note: snapshot %s was stale; delta-patched: %s\n%!"
            path (Store.Snapshot.delta_report_to_string rep);
          true
        | Store.Warm.Cold err ->
          Option.iter
            (fun e ->
               Printf.eprintf "warning: snapshot %s: %s; rebuilding cold\n%!"
                 path (Store.Codec.error_to_string e))
            err;
          true
      in
      let m, r = Runner.run_backdroid ~engine app in
      (if stale then
         match Store.Warm.save ~path ~ruleset_hash engine r with
         | Ok _ -> ()
         | Error msg ->
           Printf.eprintf "warning: snapshot %s not saved: %s\n%!" path msg);
      (app, m)
  in
  (* [i + 1] is the app's stable logical pid in the exported trace (pid 0 is
     the driver process); spans recorded while an app is analysed carry it
     regardless of which pool domain ran the task. *)
  let run_one (i, (cfg : G.config)) =
    Obs.Span.with_pid (i + 1) @@ fun () ->
    Obs.Span.with_span ~cat:"corpus" ~name:cfg.G.name @@ fun () ->
    let k = 1 + Atomic.fetch_and_add started 1 in
    Mutex.lock progress_lock;
    progress (Printf.sprintf "[%d/%d] %s" k n cfg.G.name);
    Mutex.unlock progress_lock;
    let app, m_bd = analyze_backdroid cfg in
    let m_am, _ = Runner.run_amandroid ~timeout_s:opts.timeout_s app in
    let m_fd =
      Runner.run_flowdroid_cg ~timeout_s:opts.flowdroid_timeout_s app
    in
    let stamp m = { m with Runner.parallelism = opts.jobs } in
    heartbeat ();
    (stamp m_bd, stamp m_am, stamp m_fd)
  in
  let results =
    Parallel.Pool.with_pool ~jobs:opts.jobs (fun pool ->
        Parallel.Pool.parallel_map_list pool run_one
          (List.mapi (fun i cfg -> (i, cfg)) configs))
  in
  { backdroid = List.map (fun (m, _, _) -> m) results;
    amandroid = List.map (fun (_, m, _) -> m) results;
    flowdroid = List.map (fun (_, _, m) -> m) results }

(* ------------------------------------------------------------------ *)
(* Formatting helpers                                                   *)

let pf = Printf.printf

let header title =
  pf "\n%s\n%s\n" title (String.make (String.length title) '=')

let minutes opts (m : Runner.measurement) = m.seconds *. minutes_per_second opts

let time_buckets = [ 1.0; 5.0; 10.0; 30.0; 60.0; 120.0; 300.0 ]

let bucket_labels =
  [ "<1min"; "1-5min"; "5-10min"; "10-30min"; "30-60min"; "60-120min";
    "120-300min"; ">=300min (timeout)" ]

let print_distribution opts (ms : Runner.measurement list) =
  let finished, timed_out =
    List.partition (fun (m : Runner.measurement) -> not m.timed_out) ms
  in
  let mins = List.map (minutes opts) finished in
  let counts = Stats.histogram ~buckets:time_buckets mins in
  (* fold timeouts into the last bucket *)
  let counts =
    match List.rev counts with
    | last :: rest ->
      List.rev ((last + List.length timed_out) :: rest)
    | [] -> []
  in
  List.iter2
    (fun label count ->
       pf "  %-20s %4d  %s\n" label count (String.make (min 60 count) '#'))
    bucket_labels counts

(* ------------------------------------------------------------------ *)
(* Table I                                                              *)

let table1 ?(seed = 1) () =
  header "Table I: average and median app sizes, 2014-2018";
  pf "  %-6s %-22s %-22s %s\n" "Year" "Average (paper)" "Median (paper)" "#Samples";
  List.iter
    (fun (year, (avg, med, count)) ->
       let sizes = Corpus.yearly_sizes ~seed year in
       pf "  %-6d %6.1fMB (%4.1fMB)      %6.1fMB (%4.1fMB)      %d\n" year
         (Stats.mean sizes) avg (Stats.median sizes) med count)
    Corpus.year_models

(* ------------------------------------------------------------------ *)
(* Fig. 1 / 7 / 8                                                       *)

let fig1 opts (run : corpus_run) =
  header "Fig. 1: FlowDroid whole-app call-graph generation time (CG only)";
  let ms = run.flowdroid in
  let n = List.length ms in
  let timeouts = List.length (List.filter (fun m -> m.Runner.timed_out) ms) in
  let done_mins =
    List.filter_map
      (fun (m : Runner.measurement) ->
         if m.timed_out then None else Some (minutes opts m))
      ms
  in
  print_distribution opts ms;
  pf "  median CG time  : %.2f min-equiv (paper: 9.76 min)\n" (Stats.median done_mins);
  pf "  within 5 min    : %d/%d = %.1f%% (paper: 21.5%%)\n"
    (Stats.count_in ~lo:0.0 ~hi:5.0 done_mins) n
    (100.0 *. Stats.fraction (Stats.count_in ~lo:0.0 ~hi:5.0 done_mins) n);
  pf "  timed out       : %d/%d = %.1f%% (paper: 24%%)\n" timeouts n
    (100.0 *. Stats.fraction timeouts n)

let fig7 opts (run : corpus_run) =
  header "Fig. 7: distribution of analysis time in BackDroid";
  let ms = run.backdroid in
  let n = List.length ms in
  let mins = List.map (minutes opts) ms in
  print_distribution opts ms;
  pf "  median          : %.2f min-equiv (paper: 2.13 min)\n" (Stats.median mins);
  pf "  within 1 min    : %d/%d = %.1f%% (paper: 30%%)\n"
    (Stats.count_in ~lo:0.0 ~hi:1.0 mins) n
    (100.0 *. Stats.fraction (Stats.count_in ~lo:0.0 ~hi:1.0 mins) n);
  pf "  within 10 min   : %d/%d = %.1f%% (paper: 77%%)\n"
    (Stats.count_in ~lo:0.0 ~hi:10.0 mins) n
    (100.0 *. Stats.fraction (Stats.count_in ~lo:0.0 ~hi:10.0 mins) n);
  pf "  exceeding 30min : %d (paper: 3)\n"
    (List.length (List.filter (fun m -> m > 30.0) mins));
  pf "  timeouts        : %d (paper: 0)\n"
    (List.length (List.filter (fun (m : Runner.measurement) -> m.timed_out) ms))

let fig8 opts (run : corpus_run) =
  header "Fig. 8: distribution of analysis time in Amandroid";
  let ms = run.amandroid in
  let n = List.length ms in
  let timeouts = List.length (List.filter (fun m -> m.Runner.timed_out) ms) in
  print_distribution opts ms;
  let all_mins = List.map (minutes opts) ms in
  pf "  median          : %.2f min-equiv (paper: 78.15 min)\n" (Stats.median all_mins);
  pf "  timed out       : %d/%d = %.1f%% (paper: 35%%)\n" timeouts n
    (100.0 *. Stats.fraction timeouts n);
  pf "  within 10 min   : %.1f%% (paper: 17%%)\n"
    (100.0 *. Stats.fraction (Stats.count_in ~lo:0.0 ~hi:10.0 all_mins) n);
  pf "  within 1 min    : %.1f%% (paper: 0%%)\n"
    (100.0 *. Stats.fraction (Stats.count_in ~lo:0.0 ~hi:1.0 all_mins) n)

let speedup_summary opts (run : corpus_run) =
  header "Headline: BackDroid vs Amandroid median speedup";
  let bd = Stats.median (List.map (minutes opts) run.backdroid) in
  let am = Stats.median (List.map (minutes opts) run.amandroid) in
  pf "  BackDroid median : %.2f min-equiv\n" bd;
  pf "  Amandroid median : %.2f min-equiv\n" am;
  pf "  speedup          : %.1fx (paper: 37x)\n" (am /. bd)

(* ------------------------------------------------------------------ *)
(* Fig. 9                                                               *)

let fig9 opts (run : corpus_run) =
  header "Fig. 9: #sink API calls vs BackDroid analysis time";
  let pts =
    List.map
      (fun (m : Runner.measurement) -> (m.sink_calls, minutes opts m))
      run.backdroid
    |> List.sort compare
  in
  pf "  %-12s %-14s %s\n" "#sink calls" "time (mineq)" "min/sink";
  List.iter
    (fun (s, t) ->
       if s > 0 then pf "  %-12d %-14.2f %.3f\n" s t (t /. float_of_int s))
    pts;
  let per_sink =
    List.filter_map
      (fun (s, t) -> if s > 0 then Some (t /. float_of_int s) else None)
      pts
  in
  (* paper: the majority of apps analyse faster than 30s (=0.5min) per sink *)
  let under = List.length (List.filter (fun x -> x < 0.5) per_sink) in
  pf "  apps under 0.5 min/sink: %d/%d (paper: all but ~10)\n" under
    (List.length per_sink);
  let avg_sinks = Stats.mean (List.map (fun (s, _) -> float_of_int s) pts) in
  pf "  avg sink calls per app : %.2f (paper: 20.93)\n" avg_sinks

(* ------------------------------------------------------------------ *)
(* Detection (Sec. VI-C)                                                *)

type detection_row = {
  group : string;
  mutable total : int;
  mutable bd_detected : int;
  mutable am_detected : int;
}

let detection ?(timeout_s = 2.0) () =
  header "Sec. VI-C: detection results (BackDroid vs whole-app baseline)";
  let apps = Corpus.detection ~timeout_mb:100.0 () in
  let groups = Hashtbl.create 8 in
  let row g =
    match Hashtbl.find_opt groups g with
    | Some r -> r
    | None ->
      let r = { group = g; total = 0; bd_detected = 0; am_detected = 0 } in
      Hashtbl.replace groups g r;
      r
  in
  List.iter
    (fun (d : Corpus.detection_app) ->
       let app = G.generate d.config in
       let r = row d.group in
       r.total <- r.total + 1;
       let am_cfg =
         { Baseline.Amandroid.default_config with
           Baseline.Amandroid.error_rate =
             (if d.group = "extra-error" then 1.0 else 0.0) }
       in
       let bd, _ = Runner.run_backdroid app in
       let am, _ = Runner.run_amandroid ~cfg:am_cfg ~timeout_s app in
       if bd.Runner.insecure > 0 then r.bd_detected <- r.bd_detected + 1;
       if am.Runner.insecure > 0 then r.am_detected <- r.am_detected + 1)
    apps;
  pf "  %-24s %-7s %-10s %-10s %s\n" "group" "apps" "BackDroid" "Baseline" "expected";
  let expected = function
    | "ecb-tp" -> "both detect (paper: 7/7 BD)"
    | "ssl-tp" -> "both detect (paper: 15/15 BD)"
    | "ssl-tp-subclassed" -> "baseline only (paper: 2 BD FNs)"
    | "ssl-fp-unregistered" -> "baseline FPs (paper: 6 Amandroid FPs)"
    | "extra-timeout" -> "BackDroid only (baseline times out)"
    | "extra-skipped-lib" -> "BackDroid only (liblist)"
    | "extra-async-gap" -> "BackDroid only (async/callback gaps)"
    | "extra-error" -> "BackDroid only (baseline internal errors)"
    | _ -> ""
  in
  let order =
    [ "ecb-tp"; "ssl-tp"; "ssl-tp-subclassed"; "ssl-fp-unregistered";
      "extra-timeout"; "extra-skipped-lib"; "extra-async-gap"; "extra-error" ]
  in
  List.iter
    (fun g ->
       match Hashtbl.find_opt groups g with
       | Some r ->
         pf "  %-24s %-7d %-10d %-10d %s\n" r.group r.total r.bd_detected
           r.am_detected (expected g)
       | None -> ())
    order

(* ------------------------------------------------------------------ *)
(* Sec. IV-F enhancements                                               *)

let enhancements (run : corpus_run) =
  header "Sec. IV-F: search caching, sink caching and loop detection";
  let bd = run.backdroid in
  let rates = List.map (fun m -> m.Runner.search_cache_rate *. 100.0) bd in
  pf "  search cache rate: avg %.2f%% min %.2f%% max %.2f%% (paper: avg 23.39%%, min 2.97%%, max 88.95%%)\n"
    (Stats.mean rates) (Stats.minimum rates) (Stats.maximum rates);
  let sink_rates = List.map (fun m -> m.Runner.sink_cache_rate *. 100.0) bd in
  pf "  sink-call cache  : avg %.2f%% max %.2f%% (paper: avg 13.86%%, max 68.18%%)\n"
    (Stats.mean sink_rates) (Stats.maximum sink_rates);
  let with_loops = List.length (List.filter (fun m -> m.Runner.loops > 0) bd) in
  pf "  apps with >=1 dead loop detected: %d/%d = %.0f%% (paper: 60%%)\n"
    with_loops (List.length bd)
    (100.0 *. Stats.fraction with_loops (List.length bd));
  let cross = List.fold_left (fun a m -> a + m.Runner.cross_backward_loops) 0 bd in
  let total = List.fold_left (fun a m -> a + m.Runner.loops) 0 bd in
  pf "  CrossBackward loops: %d of %d total (paper: the most common type)\n"
    cross total

(* ------------------------------------------------------------------ *)
(* Ablation: indexed search vs grep-style scans                         *)

type ablation_side = {
  ab_before : int * int;
  ab_during : int * int;
  ab_seconds : float;
  ab_query_us : float;
}

let counter name =
  Option.value ~default:0
    (List.assoc_opt name (Obs.Metrics.snapshot ()).Obs.Metrics.counters)

let ablation_side ~indexed (app : G.app) =
  let counts () =
    (counter "dex.text.renders", counter "search.postings.builds")
  in
  let diff (a, b) (c, d) = (c - a, d - b) in
  let c0 = counts () in
  let dex = G.disassemble app in
  let c1 = counts () in
  let t0 = Unix.gettimeofday () in
  let engine = Bytesearch.Engine.create ~indexed dex in
  ignore (Backdroid.Driver.analyze ~engine ~dex ~manifest:app.G.manifest ());
  let seconds = Unix.gettimeofday () -. t0 in
  let c2 = counts () in
  (* the sink query, uncached, on the engine the analysis left: repeated
     for at least 2 ms *)
  let q =
    Bytesearch.Query.invocation_sym
      (Backdroid.Sigformat.to_dex_meth_sym Framework.Sinks.cipher.msig)
  in
  let t0 = Unix.gettimeofday () in
  let rec go n =
    ignore (Bytesearch.Engine.run_uncached engine q);
    let el = Unix.gettimeofday () -. t0 in
    if el < 2e-3 then go (n + 1) else el *. 1e6 /. float_of_int n
  in
  { ab_before = diff c0 c1; ab_during = diff c1 c2; ab_seconds = seconds;
    ab_query_us = go 1 }

let ablation_search ?(count = 24) opts =
  header "Ablation: indexed search vs grep-style per-query scans";
  let configs = Corpus.modern_144 ~scale:opts.scale ~seed:opts.seed ~count () in
  let sides =
    List.map
      (fun cfg ->
         let app = G.generate ~build_dex:false cfg in
         (ablation_side ~indexed:true app, ablation_side ~indexed:false app))
      configs
  in
  let row what unit f =
    let i = Stats.median (List.map (fun (s, _) -> f s) sides)
    and s = Stats.median (List.map (fun (_, s) -> f s) sides) in
    pf "  %s, median of %d apps:\n" what (List.length sides);
    pf "    indexed  : %10.3f %s\n" i unit;
    pf "    grep-scan: %10.3f %s -> %s is %.1fx faster\n" s unit
      (if i <= s then "indexed" else "grep-scan")
      (Float.max i s /. Float.max 1e-9 (Float.min i s))
  in
  pf "  each side disassembles the app itself; its clock runs from there,\n\
     \  with no text and no postings built, over the engine's creation\n\
     \  and the analysis\n";
  row "per app" "ms" (fun a -> a.ab_seconds *. 1e3);
  row "per uncached sink query (Cipher.getInstance)" "us"
    (fun a -> a.ab_query_us)

(** Compact pass/deviation summary of the headline reproduction claims. *)
let reproduction_summary opts (run : corpus_run) =
  header "Reproduction summary";
  let bd_med = Stats.median (List.map (minutes opts) run.backdroid) in
  let am_med = Stats.median (List.map (minutes opts) run.amandroid) in
  let speedup = am_med /. bd_med in
  let bd_timeouts =
    List.length (List.filter (fun m -> m.Runner.timed_out) run.backdroid)
  in
  let am_timeout_pct =
    100.0
    *. Stats.fraction
         (List.length (List.filter (fun m -> m.Runner.timed_out) run.amandroid))
         (List.length run.amandroid)
  in
  let fd_timeout_pct =
    100.0
    *. Stats.fraction
         (List.length (List.filter (fun m -> m.Runner.timed_out) run.flowdroid))
         (List.length run.flowdroid)
  in
  let row label ok detail =
    pf "  [%s] %-44s %s\n" (if ok then "REPRODUCED" else " DEVIATION") label detail
  in
  row "median speedup over the whole-app baseline"
    (speedup > 20.0 && speedup < 80.0)
    (Printf.sprintf "%.1fx (paper: 37x)" speedup);
  row "BackDroid never times out" (bd_timeouts = 0)
    (Printf.sprintf "%d timeouts (paper: 0)" bd_timeouts);
  row "whole-app baseline timeout failures"
    (am_timeout_pct > 15.0 && am_timeout_pct < 50.0)
    (Printf.sprintf "%.1f%% (paper: 35%%)" am_timeout_pct);
  row "CG-only baseline also times out"
    (fd_timeout_pct > 5.0 && fd_timeout_pct < 40.0)
    (Printf.sprintf "%.1f%% (paper: 24%%)" fd_timeout_pct);
  let per_sink_ok =
    let pts =
      List.filter_map
        (fun (m : Runner.measurement) ->
           if m.sink_calls > 0 then
             Some (minutes opts m /. float_of_int m.sink_calls)
           else None)
        run.backdroid
    in
    Stats.fraction (List.length (List.filter (fun x -> x < 0.5) pts))
      (List.length pts)
    > 0.75
  in
  row "analysis time scales with sink count, <0.5 min/sink" per_sink_ok
    "(paper: all but ~10 apps)"

let run_all ?(opts = default_opts) ?(csv_path = None) () =
  table1 ();
  let run = run_corpus ~progress:(fun s -> Printf.eprintf "%s\r%!" s) opts in
  Printf.eprintf "\n%!";
  (match csv_path with
   | Some path ->
     Report.write_csv path (run.backdroid @ run.amandroid @ run.flowdroid);
     pf "\n[measurements exported to %s]\n" path
   | None -> ());
  fig1 opts run;
  fig7 opts run;
  fig8 opts run;
  speedup_summary opts run;
  fig9 opts run;
  detection ~timeout_s:opts.timeout_s ();
  enhancements run;
  ablation_search ~count:(min 24 opts.count) opts;
  reproduction_summary opts run
