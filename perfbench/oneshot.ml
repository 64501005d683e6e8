(* The one-shot workloads' operations.  Each function below is the body of
   one fresh process (see [Proc.in_child]): it generates its app with
   [~build_dex:false] — untimed, so disassembly stays inside the timed
   section — then times the pipeline the one-shot CLI runs, then checks the
   outcome against the generator's ground truth and, where a reference is
   given, against a cold analysis of the same program. *)

module G = Appgen.Generator
module D = Backdroid.Driver
module E = Bytesearch.Engine
module Snap = Store.Snapshot
module R = Serve.Render

let ruleset_hash = Rules.Rule.hash_list D.default_config.D.rules
let now = Proc.now_ms

(* The builder-spec template assembles a cipher transformation string, so
   it realises a misuse only on the cipher sink.  [Corpus.random_plant]
   also pairs the shape with the two SSL sinks and keeps the drawn
   [insecure] label, but such a program passes that String where a
   HostnameVerifier goes: there is no verifier misuse to find, and the
   right verdict is unresolved.  The ground truth counts each plant by
   what it realises, and {!check} demands that verdict of the others. *)
let realised (p : Appgen.Templates.planted) =
  p.shape <> Appgen.Shape.Builder_spec || p.sink == Framework.Sinks.cipher

let planted_insecure (app : G.app) =
  List.length
    (List.filter
       (fun (p : Appgen.Templates.planted) -> p.insecure && p.reachable && realised p)
       app.G.planted)

(* A reachable plant that realises no misuse must be reported unresolved
   at its sink. *)
let unresolved_as_realised (app : G.app) (r : D.result) =
  List.for_all
    (fun (p : Appgen.Templates.planted) ->
       realised p || (not p.reachable)
       || List.exists
            (fun (rep : D.sink_report) ->
               rep.D.reachable && rep.D.verdict = Backdroid.Detectors.Unresolved
               && rep.D.meth.Ir.Jsig.cls = p.sink_class
               && rep.D.sink.Framework.Sinks.name = p.sink.Framework.Sinks.name)
            r.D.reports)
    app.G.planted

(* The generator's multidex split: app classes in classesN.dex chunks of
   50 (in name order; the split does not change findings). *)
let partitions program =
  let names =
    List.sort compare
      (List.map (fun (c : Ir.Jclass.t) -> c.Ir.Jclass.name)
         (Ir.Program.app_classes program))
  in
  let rec chunk acc cur n = function
    | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
    | x :: rest when n = 50 -> chunk (List.rev cur :: acc) [ x ] 1 rest
    | x :: rest -> chunk acc (x :: cur) (n + 1) rest
  in
  chunk [] [] 0 names

let disassemble parts program =
  match parts with
  | Some p -> Dex.Dexfile.of_partitions program p
  | None -> Dex.Dexfile.of_program program

let generate (cfg : G.config) =
  let app = G.generate ~build_dex:false cfg in
  let parts = if cfg.G.multidex then Some (partitions app.G.program) else None in
  (app, parts)

(* [None] when the findings match the planted ground truth, no slice ran
   out of budget, and the per-sink lines equal [reference]. *)
let check ?reference (app : G.app) (r : D.result) =
  let found = List.length (D.insecure_reports r) in
  let expected = planted_insecure app in
  if r.D.stats.D.partial_sinks > 0 then
    Some (Printf.sprintf "%d partial sinks" r.D.stats.D.partial_sinks)
  else if found <> expected then
    Some (Printf.sprintf "%d insecure findings, %d planted" found expected)
  else if not (unresolved_as_realised app r) then
    Some "a builder-spec plant on an SSL sink not reported unresolved"
  else
    match reference with
    | Some lines when R.report_lines r <> lines ->
      Some "per-sink lines differ from a cold analysis"
    | _ -> None

let cold_lines (app : G.app) =
  let dex = Dex.Dexfile.of_program app.G.program in
  R.report_lines (D.analyze ~engine:(E.create dex) ~dex ~manifest:app.G.manifest ())

let counter name =
  match List.assoc_opt name (Obs.Metrics.snapshot ()).Obs.Metrics.counters with
  | Some n -> float_of_int n
  | None -> 0.0

(* The search and core layers' own accounts of one analysis. *)
let note_engine c engine (r : D.result) =
  let ms l = Stat.sum (List.map snd l) /. 1e3 in
  let s = r.D.stats in
  List.iter
    (fun (k, v) -> Op.note c k v)
    [ ("search.index_build_ms", ms (E.index_build_timings engine));
      ("search.miss_ms", ms (E.category_timings engine));
      ("search.queries", float_of_int s.D.searches_total);
      ("search.cached", float_of_int s.D.searches_cached);
      ("search.postings_bytes", float_of_int (E.postings_footprint engine));
      ("core.sink_calls", float_of_int s.D.sink_calls);
      ("core.resolutions", float_of_int s.D.resolutions);
      ("core.work_spent", float_of_int s.D.work_spent);
      ("core.ssg_nodes", float_of_int s.D.ssg_nodes);
      ("core.replayed_sinks", float_of_int s.D.replayed_sinks);
      ("core.partial_sinks", float_of_int s.D.partial_sinks) ]

let finish c ~app ~cal_ms ~t_prep ~t0 ~wall_ms ~rss_kb ~sinks failure =
  Op.note c "appgen.generate_ms" (t0 -. t_prep);
  let failure = Option.map (fun why -> app.G.name ^ ": " ^ why) failure in
  { Op.wall_ms; prep_ms = t0 -. t_prep; cal_ms; rss_kb; sinks; input = -1; failure;
    traced = c.Op.on; layers = c.Op.marks }

(* fig7-cold: disassemble, create the engine, analyze at jobs 1, render. *)
let cold ~traced (cfg : G.config) () =
  let c = Op.clock traced in
  let cal_ms = Proc.calibrate () in
  let t_prep = now () in
  let app, parts = generate cfg in
  let t0 = now () in
  let dex = Op.timed c "dex.disasm_ms" (fun () -> disassemble parts app.G.program) in
  let engine = Op.timed c "search.create_ms" (fun () -> E.create dex) in
  let r =
    Op.timed c "core.analyze_ms" (fun () ->
        D.analyze ~engine ~dex ~manifest:app.G.manifest ())
  in
  let (_ : string) =
    Op.timed c "serve.render_ms" (fun () ->
        R.render ~app_name:app.G.name ~seconds:((now () -. t0) /. 1e3) r)
  in
  let wall_ms = now () -. t0 in
  let rss_kb = Proc.vmhwm_kb "self" in
  if traced then begin
    note_engine c engine r;
    Op.note c "dex.lines" (float_of_int (Dex.Dexfile.line_count dex))
  end;
  finish c ~app ~cal_ms ~t_prep ~t0 ~wall_ms ~rss_kb ~sinks:(List.length cfg.G.plants)
    (check app r)

(* Set-up for the warm workloads: a fresh one-shot process analyses the app
   cold and saves its snapshot with the persisted per-sink results, as
   [backdroid analyze --save-index] does.  Returns the cold per-sink lines
   (the measured operations check the findings) and the process's
   host-normalised time. *)
let write_snapshot ~path (cfg : G.config) () =
  let cal_ms = Proc.calibrate () in
  let t0 = now () in
  let app, parts = generate cfg in
  let dex = disassemble parts app.G.program in
  let engine = E.create dex in
  let r = D.analyze ~engine ~dex ~manifest:app.G.manifest () in
  let results =
    Backdroid.Resultcache.to_strings (D.export_results ~dex:(E.dexfile engine) r)
  in
  ignore (Snap.save ~ruleset_hash ~results ~path engine : int);
  (R.report_lines r, (now () -. t0) *. Op.speed cal_ms)

let ok_or what = function
  | Ok v -> v
  | Error e -> failwith (what ^ ": " ^ Store.Codec.error_to_string e)

(* fig9-warm: prefaulted snapshot load, analyze, render. *)
let warm ~traced ~path ~reference (cfg : G.config) () =
  let c = Op.clock traced in
  let cal_ms = Proc.calibrate () in
  let t_prep = now () in
  let app, _ = generate cfg in
  let t0 = now () in
  let engine =
    Op.timed c "store.load_ms" (fun () ->
        ok_or "snapshot load" (Snap.load ~prefault:true ~path app.G.program))
  in
  let r =
    Op.timed c "core.analyze_ms" (fun () ->
        D.analyze ~engine ~dex:app.G.dex ~manifest:app.G.manifest ())
  in
  let (_ : string) =
    Op.timed c "serve.render_ms" (fun () ->
        R.render ~app_name:app.G.name ~seconds:((now () -. t0) /. 1e3) r)
  in
  let wall_ms = now () -. t0 in
  let rss_kb = Proc.vmhwm_kb "self" in
  if traced then begin
    note_engine c engine r;
    Op.note c "store.snapshot_bytes" (float_of_int (Unix.stat path).Unix.st_size);
    Op.note c "store.remapped_loads" (counter "store.load.remapped")
  end;
  finish c ~app ~cal_ms ~t_prep ~t0 ~wall_ms ~rss_kb ~sinks:(List.length cfg.G.plants)
    (check ~reference app r)

(* delta-update: version N+1 against its v1 snapshot — delta-patch, replay
   the persisted results, export the new results, save the new snapshot.
   The cold analysis of the same version, the oracle, runs after the timed
   section. *)
let delta ~traced ~path ~out ~mutation_seed (cfg : G.config) () =
  let c = Op.clock traced in
  let cal_ms = Proc.calibrate () in
  let t_prep = now () in
  let v1, _ = generate cfg in
  let app = G.mutate ~seed:mutation_seed ~build_dex:false ~pct:0.01 v1 in
  let t0 = now () in
  let engine, rep =
    Op.timed c "store.delta_ms" (fun () ->
        ok_or "snapshot delta" (Snap.delta ~path app.G.program))
  in
  let results =
    Op.timed c "store.delta_ms" (fun () ->
        let strs = ok_or "persisted results" (Snap.load_results ~path) in
        match Backdroid.Resultcache.of_strings strs with
        | Ok rc -> rc
        | Error e -> failwith ("persisted results: " ^ e))
  in
  let r =
    Op.timed c "core.analyze_ms" (fun () ->
        D.analyze ~engine ~results ~dex:app.G.dex ~manifest:app.G.manifest ())
  in
  let strs =
    Op.timed c "core.export_ms" (fun () ->
        Backdroid.Resultcache.to_strings
          (D.export_results ~dex:(E.dexfile engine) r))
  in
  let bytes =
    Op.timed c "store.save_ms" (fun () ->
        Snap.save ~ruleset_hash ~results:strs ~path:out engine)
  in
  let wall_ms = now () -. t0 in
  let rss_kb = Proc.vmhwm_kb "self" in
  if traced then begin
    note_engine c engine r;
    Op.note c "store.snapshot_bytes" (float_of_int bytes);
    Op.note c "store.lines_reused" (float_of_int rep.Snap.d_lines_reused);
    Op.note c "store.lines_rendered" (float_of_int rep.Snap.d_lines_rendered)
  end;
  (try Sys.remove out with Sys_error _ -> ());
  let reference = cold_lines app in
  finish c ~app ~cal_ms ~t_prep ~t0 ~wall_ms ~rss_kb ~sinks:(List.length cfg.G.plants)
    (check ~reference app r)
