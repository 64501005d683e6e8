(** Runs each tool over generated apps with wall-clock timing and (for the
    whole-app baselines) a real timeout, collecting the per-app measurements
    the experiments aggregate. *)

module G = Appgen.Generator

type tool = Backdroid_tool | Amandroid_tool | Flowdroid_cg_tool

let tool_name = function
  | Backdroid_tool -> "BackDroid"
  | Amandroid_tool -> "Amandroid"
  | Flowdroid_cg_tool -> "FlowDroid-CG"

type measurement = {
  app : string;
  tool : tool;
  seconds : float;         (** wall-clock, capped at the timeout *)
  timed_out : bool;
  errored : bool;
  sink_calls : int;        (** sink API call occurrences analysed *)
  size_stmts : int;
  size_mb : float;
  insecure : int;          (** insecure findings (0 on timeout/error) *)
  insecure_by_rule : (string * int) list;
      (** insecure findings per rule family, normalised to the fixed
          {!Rules.Builtin.family_names} order with zero-count families
          dropped (the per-rule CSV columns) *)
  search_cache_rate : float;  (** BackDroid only *)
  sink_cache_rate : float;    (** BackDroid only *)
  loops : int;                (** BackDroid only: dead loops detected *)
  cross_backward_loops : int;
  partial_sinks : int;
      (** BackDroid only: sink slices that exhausted their budget *)
  parallelism : int;       (** worker-pool size the measurement ran under *)
  incremental : bool;
      (** BackDroid only: the engine was delta-patched from an older
          snapshot instead of built from scratch *)
  resolutions : int;
      (** BackDroid only: caller resolutions taken by fresh slices *)
  resolved_callers : int;
      (** BackDroid only: callers those resolutions produced *)
  work_spent : int;
      (** BackDroid only: work items spent by fresh slices *)
}

(* Tally [names] into per-family counts, in the fixed family-column order;
   names outside the built-in families (custom rule files) have no column
   and are dropped. *)
let count_by_family names =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun n ->
       Hashtbl.replace tbl n
         (1 + Option.value ~default:0 (Hashtbl.find_opt tbl n)))
    names;
  List.filter_map
    (fun f ->
       match Hashtbl.find_opt tbl f with
       | Some n -> Some (f, n)
       | None -> None)
    Rules.Builtin.family_names

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  r, Unix.gettimeofday () -. t0

let mb_of app = G.size_mb ~stmts_per_mb:Appgen.Corpus.stmts_per_mb app

let run_backdroid ?(cfg = Backdroid.Driver.default_config) ?engine
    (app : G.app) =
  let r, secs =
    time (fun () ->
        Backdroid.Driver.analyze ~cfg ?engine ~dex:app.G.dex
          ~manifest:app.G.manifest ())
  in
  let s = r.Backdroid.Driver.stats in
  ( { app = app.G.name;
      tool = Backdroid_tool;
      seconds = secs;
      timed_out = false;
      errored = false;
      sink_calls = s.Backdroid.Driver.sink_calls;
      size_stmts = app.G.size_stmts;
      size_mb = mb_of app;
      insecure = List.length (Backdroid.Driver.insecure_reports r);
      insecure_by_rule =
        count_by_family
          (List.map
             (fun (rep : Backdroid.Driver.sink_report) ->
                rep.Backdroid.Driver.rule.Rules.Rule.name)
             (Backdroid.Driver.insecure_reports r));
      search_cache_rate = s.Backdroid.Driver.search_cache_rate;
      sink_cache_rate =
        Stats.fraction s.Backdroid.Driver.sink_cache_hits
          s.Backdroid.Driver.sink_cache_lookups;
      loops = Backdroid.Loopdetect.total s.Backdroid.Driver.loops;
      cross_backward_loops =
        Backdroid.Loopdetect.get s.Backdroid.Driver.loops
          Backdroid.Loopdetect.Cross_backward;
      partial_sinks = s.Backdroid.Driver.partial_sinks;
      parallelism = 1;
      incremental =
        (match engine with
         | Some e -> Bytesearch.Engine.index_mode e = "delta"
         | None -> false);
      resolutions = s.Backdroid.Driver.resolutions;
      resolved_callers = s.Backdroid.Driver.resolved_callers;
      work_spent = s.Backdroid.Driver.work_spent },
    r )

let run_amandroid ?(cfg = Baseline.Amandroid.default_config) ~timeout_s
    (app : G.app) =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let cfg = { cfg with Baseline.Amandroid.deadline = Some deadline } in
  let r, secs =
    time (fun () ->
        Baseline.Amandroid.analyze ~cfg ~program:app.G.program
          ~manifest:app.G.manifest ())
  in
  let timed_out = r.Baseline.Amandroid.outcome = Baseline.Amandroid.Timed_out in
  let errored =
    match r.Baseline.Amandroid.outcome with
    | Baseline.Amandroid.Errored _ -> true
    | _ -> false
  in
  ( { app = app.G.name;
      tool = Amandroid_tool;
      seconds = (if timed_out then timeout_s else secs);
      timed_out;
      errored;
      sink_calls = 0;
      size_stmts = app.G.size_stmts;
      size_mb = mb_of app;
      insecure =
        List.length
          (Baseline.Amandroid.insecure_findings r.Baseline.Amandroid.outcome);
      insecure_by_rule =
        count_by_family
          (List.map
             (fun (f : Baseline.Amandroid.finding) ->
                match Rules.Builtin.rule_for_sink f.Baseline.Amandroid.sink with
                | Some rule -> rule.Rules.Rule.name
                | None -> f.Baseline.Amandroid.sink.Framework.Sinks.name)
             (Baseline.Amandroid.insecure_findings r.Baseline.Amandroid.outcome));
      search_cache_rate = 0.0;
      sink_cache_rate = 0.0;
      loops = 0;
      cross_backward_loops = 0;
      partial_sinks = 0;
      parallelism = 1;
      incremental = false;
      resolutions = 0;
      resolved_callers = 0;
      work_spent = 0 },
    r )

let run_flowdroid_cg ?(cfg = Baseline.Flowdroid_cg.default_config) ~timeout_s
    (app : G.app) =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let cfg = { cfg with Baseline.Flowdroid_cg.deadline = Some deadline } in
  let outcome, secs =
    time (fun () ->
        match
          Baseline.Flowdroid_cg.build ~cfg app.G.program app.G.manifest
        with
        | r -> Ok r
        | exception Baseline.Flowdroid_cg.Timeout -> Error ())
  in
  let timed_out = Result.is_error outcome in
  { app = app.G.name;
    tool = Flowdroid_cg_tool;
    seconds = (if timed_out then timeout_s else secs);
    timed_out;
    errored = false;
    sink_calls = 0;
    size_stmts = app.G.size_stmts;
    size_mb = mb_of app;
    insecure = 0;
    insecure_by_rule = [];
    search_cache_rate = 0.0;
    sink_cache_rate = 0.0;
    loops = 0;
    cross_backward_loops = 0;
    partial_sinks = 0;
    parallelism = 1;
    incremental = false;
    resolutions = 0;
    resolved_callers = 0;
    work_spent = 0 }
