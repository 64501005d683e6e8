(* Tests for the parallel subsystem: the domain pool combinators, and the
   jobs=1 vs jobs=N determinism guarantee across every layer that runs on
   several domains: concurrent queries on one engine, concurrent runs of
   one analysis session (a daemon's workers), and the per-app experiment
   grid. *)

module Pool = Parallel.Pool
module G = Appgen.Generator
module Driver = Backdroid.Driver

let test_jobs = 4

(* ------------------------------------------------------------------ *)
(* Pool combinators                                                    *)

let test_map_empty () =
  Pool.with_pool ~jobs:test_jobs (fun pool ->
      Alcotest.(check int) "empty array" 0
        (Array.length (Pool.parallel_map pool (fun x -> x) [||]));
      Alcotest.(check (list int)) "empty list" []
        (Pool.parallel_map_list pool (fun x -> x) []))

let test_map_order () =
  let input = Array.init 1000 (fun i -> i) in
  let expect = Array.map (fun i -> i * i) input in
  Pool.with_pool ~jobs:test_jobs (fun pool ->
      Alcotest.(check (array int)) "squares in order" expect
        (Pool.parallel_map pool (fun i -> i * i) input));
  Pool.with_pool ~jobs:1 (fun pool ->
      Alcotest.(check (array int)) "sequential pool agrees" expect
        (Pool.parallel_map pool (fun i -> i * i) input))

let test_exception_propagation () =
  Pool.with_pool ~jobs:test_jobs (fun pool ->
      match
        Pool.parallel_map pool
          (fun i -> if i >= 5 then failwith (string_of_int i) else i)
          (Array.init 10 (fun i -> i))
      with
      | _ -> Alcotest.fail "expected the worker exception to propagate"
      | exception Failure msg ->
        Alcotest.(check string) "lowest failing index wins" "5" msg);
  (* the pool survives a failed batch *)
  Pool.with_pool ~jobs:test_jobs (fun pool ->
      (try ignore (Pool.parallel_map pool (fun () -> failwith "boom") [| () |])
       with Failure _ -> ());
      Alcotest.(check (array int)) "usable after failure" [| 0; 1; 2 |]
        (Pool.parallel_map pool (fun i -> i) [| 0; 1; 2 |]))

let test_nested_map () =
  Pool.with_pool ~jobs:test_jobs (fun pool ->
      let out =
        Pool.parallel_map pool
          (fun base ->
             Array.fold_left ( + ) 0
               (Pool.parallel_map pool (fun i -> base + i)
                  (Array.init 50 (fun i -> i))))
          (Array.init 4 (fun i -> i * 100))
      in
      let expect =
        Array.init 4 (fun b -> (50 * 100 * b) + (50 * 49 / 2))
      in
      Alcotest.(check (array int)) "nested batches settle" expect out)

(* ------------------------------------------------------------------ *)
(* Once                                                                *)

module Once = Parallel.Once
module Int_once = Once.Make (Hashtbl.Make (Int))

(* Whether [flag] is set within [seconds]: a bounded wait, so that a
   test of code that would block forever fails instead. *)
let await ?(seconds = 5.0) flag =
  let deadline = Unix.gettimeofday () +. seconds in
  while (not (Atomic.get flag)) && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.001
  done;
  Atomic.get flag

(* [test_jobs] domains released at once, each running [f]. *)
let race f = Sessions.race ~domains:test_jobs f

(* Racing domains share one compute: the slow compute keeps the others
   arriving while it is pending, and they take its value. *)
let test_once_computes_once () =
  let computes = Atomic.make 0 in
  let slow v () =
    Atomic.incr computes;
    Unix.sleepf 0.02;
    ref v
  in
  let table = Int_once.create 8 in
  let cell = Once.make () in
  let check what got =
    Alcotest.(check int) (what ^ ": one compute") 1 (Atomic.get computes);
    Alcotest.(check bool) (what ^ ": one value for all") true
      (List.for_all (fun v -> v == List.hd got) got);
    Atomic.set computes 0
  in
  check "keyed"
    (race (fun () -> Int_once.find_or_add table 7 (fun k -> slow k ())));
  check "single" (race (fun () -> Once.get cell (slow 42)));
  Alcotest.(check (option int)) "the cell is filled" (Some 42)
    (Option.map ( ! ) (Once.peek cell))

(* A compute that raises leaves the key absent and re-raises to its own
   caller; a caller that waited on it computes again. *)
let test_once_failure_retries () =
  let table = Int_once.create 8 in
  let started = Atomic.make false in
  let computes = Atomic.make 0 in
  let waiter =
    Domain.spawn (fun () ->
        ignore (await started);
        Int_once.find_or_add table 1 (fun _ ->
            Atomic.incr computes;
            "second"))
  in
  (match
     Int_once.find_or_add table 1 (fun _ ->
         Atomic.incr computes;
         Atomic.set started true;
         Unix.sleepf 0.05;
         failwith "first")
   with
   | _ -> Alcotest.fail "the compute's exception was lost"
   | exception Failure m ->
     Alcotest.(check string) "the caller gets its exception" "first" m);
  Alcotest.(check string) "the waiter recomputed" "second"
    (Domain.join waiter);
  Alcotest.(check int) "two computes" 2 (Atomic.get computes);
  Alcotest.(check string) "the key holds the recomputed value" "second"
    (Int_once.find_or_add table 1 (fun _ -> "third"));
  let cell = Once.make () in
  (match Once.get cell (fun () -> failwith "empty") with
   | _ -> Alcotest.fail "the cell's exception was lost"
   | exception Failure _ -> ());
  Alcotest.(check (option int)) "a failed cell stays empty" None
    (Once.peek cell);
  Alcotest.(check int) "and computes again" 5 (Once.get cell (fun () -> 5))

let fixture_app ?(filler = 30) ?(seed = 11) () =
  let rng = Appgen.Rng.create (seed * 31) in
  let plants =
    List.init 6 (fun _ -> Appgen.Corpus.random_plant rng ~insecure_p:0.5)
  in
  G.generate
    { G.default_config with
      G.seed;
      name = Printf.sprintf "com.par.app%d" seed;
      filler_classes = filler;
      plants }

(* [async] hands a task to a worker domain, never to the caller, and
   refuses a pool that has no worker to run it. *)
let test_async_on_workers () =
  let refused pool =
    match Pool.async pool ignore with
    | () -> false
    | exception Invalid_argument _ -> true
  in
  Pool.with_pool ~jobs:2 (fun pool ->
      Alcotest.(check int) "jobs=2: one worker" 1 (Pool.workers pool);
      let m = Mutex.create () and c = Condition.create () in
      let ran_on = ref None in
      Pool.async pool (fun () ->
          Mutex.lock m;
          ran_on := Some (Domain.self ());
          Condition.signal c;
          Mutex.unlock m);
      Mutex.lock m;
      while Option.is_none !ran_on do
        Condition.wait c m
      done;
      Mutex.unlock m;
      Alcotest.(check bool) "ran off the calling domain" true
        ((Option.get !ran_on :> int) <> (Domain.self () :> int)));
  Pool.with_pool ~jobs:1 (fun pool ->
      Alcotest.(check int) "jobs=1: no worker" 0 (Pool.workers pool);
      Alcotest.(check bool) "jobs=1 refuses" true (refused pool));
  let pool = Pool.create ~jobs:test_jobs in
  Alcotest.(check int) "jobs=4: three workers" 3 (Pool.workers pool);
  Pool.shutdown pool;
  Alcotest.(check int) "no worker after shutdown" 0 (Pool.workers pool);
  Alcotest.(check bool) "shut-down pool refuses" true (refused pool)

(* ------------------------------------------------------------------ *)
(* Engines                                                             *)

let hit_fingerprint (h : Bytesearch.Engine.hit) =
  Printf.sprintf "%d:%s:%s:%s" h.line_no
    (Ir.Jsig.meth_to_string h.owner) h.owner_cls
    (match h.stmt_idx with Some i -> string_of_int i | None -> "-")

(* Two packed tables hold the same bytes: keys, run offsets and runs. *)
let check_packed_equal what (a : Bytesearch.Engine.Packed.t)
    (b : Bytesearch.Engine.Packed.t) =
  let module P = Bytesearch.Engine.Packed in
  Alcotest.(check (array int)) (what ^ ": keys") (Ivec.to_array a.P.keys)
    (Ivec.to_array b.P.keys);
  Alcotest.(check (array int)) (what ^ ": offsets")
    (Ivec.to_array a.P.offsets) (Ivec.to_array b.P.offsets);
  Alcotest.(check string) (what ^ ": runs") (Bvec.to_string a.P.runs)
    (Bvec.to_string b.P.runs)

(* ------------------------------------------------------------------ *)
(* Property: every query kind returns identical hits under unindexed scan,
   lazy postings, a mapped snapshot and a delta-patched index, from one
   domain and from four at once.  The query set is exhaustive over the program:
   one invocation query per app method, one class-shaped query per app
   class per kind, one field query per field per kind, plus const-string
   and raw probes (including strings containing ", " — the operand-split
   edge the postings index must not mis-key). *)

let exhaustive_queries program =
  let module Q = Bytesearch.Query in
  let classes = Ir.Program.app_classes program in
  let class_descs =
    List.map (fun (c : Ir.Jclass.t) -> Dex.Descriptor.class_desc c.Ir.Jclass.name)
      classes
  in
  let meth_descs =
    List.concat_map
      (fun (c : Ir.Jclass.t) ->
         List.map
           (fun (m : Ir.Jmethod.t) -> Dex.Descriptor.meth_desc m.Ir.Jmethod.msig)
           c.Ir.Jclass.methods)
      classes
  in
  let field_descs =
    List.concat_map
      (fun (c : Ir.Jclass.t) -> List.map Dex.Descriptor.field_desc c.Ir.Jclass.fields)
      classes
  in
  let strings = [ "AES"; "a, b"; "\"quoted\""; "no-such-literal" ] in
  let raws = [ "invoke-static"; "const-string"; "no-such-opcode" ] in
  List.map Q.invocation meth_descs
  @ List.concat_map
      (fun d -> [ Q.new_instance d; Q.const_class d; Q.class_use d ])
      class_descs
  @ List.concat_map
      (fun d -> [ Q.field_access d; Q.static_field_access d ])
      field_descs
  @ List.map Q.const_string strings
  @ List.map Q.raw raws

let test_mode_equivalence () =
  let app = fixture_app ~filler:12 ~seed:17 () in
  let module Q = Bytesearch.Query in
  let module E = Bytesearch.Engine in
  let queries = exhaustive_queries app.G.program in
  let scan = E.create ~indexed:false app.G.dex in
  let lazy_seq = E.create app.G.dex in
  (* a mapped snapshot: save a fresh engine's index and map it back *)
  let snap_path = Filename.temp_file "backdroid_modeequiv" ".bdix" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove snap_path with Sys_error _ -> ())
  @@ fun () ->
  ignore (Store.Snapshot.save ~path:snap_path (E.create app.G.dex));
  let snap_seq =
    match Store.Snapshot.load ~path:snap_path app.G.program with
    | Ok e -> e
    | Error e -> Alcotest.failf "snapshot load: %s" (Store.Codec.error_to_string e)
  in
  (* an index delta-patched from an older app version.
     Snapshot a mutated variant (the "v1" build), then patch it toward
     [app] so changed classes genuinely re-render while the rest splice. *)
  let old_app = Appgen.Generator.mutate ~pct:0.3 app in
  let old_engine = E.create old_app.G.dex in
  let delta_path = Filename.temp_file "backdroid_modeequiv_v1" ".bdix" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove delta_path with Sys_error _ -> ())
  @@ fun () ->
  ignore (Store.Snapshot.save ~path:delta_path old_engine);
  let delta_file =
    match Store.Snapshot.delta ~path:delta_path app.G.program with
    | Ok (e, _) -> e
    | Error e -> Alcotest.failf "delta: %s" (Store.Codec.error_to_string e)
  in
  let delta_of what old program =
    match Store.Snapshot.delta_of_engine old program with
    | Ok (e, _) -> e
    | Error e -> Alcotest.failf "%s: %s" what (Store.Codec.error_to_string e)
  in
  let delta_resident = delta_of "delta_of_engine" old_engine app.G.program in
  (* every producer's text is the text a cold render of its program
     gives: a loaded text walks the class map, a delta's the new layout,
     a second-generation delta's a layout patched twice *)
  let text e = Dex.Dexfile.to_string (E.dexfile e) in
  let cold_text = Dex.Dexfile.to_string app.G.dex in
  List.iter
    (fun (what, e) ->
       Alcotest.(check string) (what ^ " text == cold render") cold_text
         (text e))
    [ ("snapshot", snap_seq); ("delta-file", delta_file);
      ("delta-resident", delta_resident) ];
  Alcotest.(check string) "second-generation delta text == cold render"
    (Dex.Dexfile.to_string (Dex.Dexfile.of_program old_app.G.program))
    (text (delta_of "second generation" delta_file old_app.G.program));
  let expect =
    Array.of_list
      (List.map
         (fun q -> List.map hit_fingerprint (E.run_uncached scan q))
         queries)
  in
  Alcotest.(check bool) "non-trivial query set" true (Array.length expect > 50);
  List.iter
    (fun (name, e) ->
       List.iteri
         (fun i q ->
            Alcotest.(check (list string))
              (Printf.sprintf "%s agrees with scan on %s" name
                 (Q.to_command q))
              expect.(i)
              (List.map hit_fingerprint (E.run_uncached e q)))
         queries)
    [ ("lazy", lazy_seq); ("snapshot", snap_seq); ("delta-file", delta_file);
      ("delta-resident", delta_resident) ];
  Alcotest.(check int) "snapshot loaded every category" 7
    (E.built_categories snap_seq);
  Alcotest.(check int) "delta carried every category" 7
    (E.built_categories delta_file);
  Alcotest.(check string) "delta engine reports its mode" "delta"
    (E.index_mode delta_resident);
  (* One fresh lazy engine, asked every query by four domains at once:
     two start at the first query and two halfway, so they race on the
     same keys and on the same category builds. *)
  let shared = E.create app.G.dex in
  let builds () =
    Option.value ~default:0
      (List.assoc_opt "search.postings.builds"
         (Obs.Metrics.snapshot ()).Obs.Metrics.counters)
  in
  let builds0 = builds () in
  let qs = Array.of_list queries in
  let n = Array.length qs in
  let go = Atomic.make false in
  (* each domain's hits and its lookups: its counters' deltas *)
  let ask d () =
    while not (Atomic.get go) do Domain.cpu_relax () done;
    let l0 = E.local_counts () in
    let got = Array.make n [] in
    let offset = d mod 2 * (n / 2) in
    for i = 0 to n - 1 do
      let j = (i + offset) mod n in
      got.(j) <- List.map hit_fingerprint (E.run shared qs.(j))
    done;
    let l1 = E.local_counts () in
    ( got,
      ( l1.Bytesearch.Cache.lc_total - l0.Bytesearch.Cache.lc_total,
        l1.Bytesearch.Cache.lc_cached - l0.Bytesearch.Cache.lc_cached ) )
  in
  let domains = List.init test_jobs (fun d -> Domain.spawn (ask d)) in
  Atomic.set go true;
  let answers = List.map Domain.join domains in
  List.iteri
    (fun d (got, _) ->
       Array.iteri
         (fun j hits ->
            Alcotest.(check (list string))
              (Printf.sprintf "domain %d agrees with scan on %s" d
                 (Q.to_command qs.(j)))
              expect.(j) hits)
         got)
    answers;
  Alcotest.(check int) "each category built once" 7 (builds () - builds0);
  let sum f = List.fold_left (fun acc (_, c) -> acc + f c) 0 answers in
  Alcotest.(check int) "every query counted" (test_jobs * n) (sum fst);
  let module Distinct = Hashtbl.Make (Q) in
  let distinct = Distinct.create n in
  Array.iter (fun q -> Distinct.replace distinct q ()) qs;
  Alcotest.(check int) "one miss per distinct query"
    ((test_jobs * n) - Distinct.length distinct)
    (sum snd)

(* ------------------------------------------------------------------ *)
(* Determinism: concurrent runs of one analysis session                *)

let report_fingerprint (r : Driver.sink_report) =
  Printf.sprintf "%s@%s:%d reachable=%b fact=%s verdict=%s ssg=%b"
    r.sink.Framework.Sinks.name
    (Ir.Jsig.meth_to_string r.meth)
    r.site r.reachable
    (Backdroid.Facts.to_string r.fact)
    (Backdroid.Detectors.verdict_to_string r.verdict)
    (Option.is_some r.ssg)

(* Every scheduling-independent field: all but [index_categories_built],
   which counts every run of the engine, and the cache hits, which depend
   on the runs before or beside (a session's first run pays the misses). *)
let stats_fingerprint (s : Driver.stats) =
  let loop k = Backdroid.Loopdetect.get s.loops k in
  Printf.sprintf
    "sinks=%d searches=%d slookups=%d shits=%d loops=%d/%d/%d/%d nodes=%d \
     edges=%d partial=%d replayed=%d resolutions=%d callers=%d work=%d"
    s.sink_calls s.searches_total s.sink_cache_lookups s.sink_cache_hits
    (loop Backdroid.Loopdetect.Cross_backward)
    (loop Backdroid.Loopdetect.Inner_backward)
    (loop Backdroid.Loopdetect.Cross_forward)
    (loop Backdroid.Loopdetect.Inner_forward)
    s.ssg_nodes s.ssg_edges s.partial_sinks s.replayed_sinks s.resolutions
    s.resolved_callers s.work_spent

(* Four domains run one session at once, as a daemon's workers do: each
   run's reports and per-run statistics equal a run alone, a run counts
   its own searches only, and over the four runs these hold one miss per
   distinct query, as four runs one after another do. *)
let test_driver_determinism () =
  let app = fixture_app ~seed:23 () in
  let seq = Sessions.sequential ~runs:test_jobs app
  and par = Sessions.concurrent ~jobs:test_jobs app in
  let first = List.hd seq.Sessions.results in
  let alone = first.Driver.stats in
  Alcotest.(check bool) "found sink calls" true (alone.Driver.sink_calls > 0);
  Alcotest.(check bool) "several sink groups" true
    (List.length
       (List.sort_uniq compare
          (List.map
             (fun (r : Driver.sink_report) -> Ir.Jsig.meth_to_string r.meth)
             first.Driver.reports))
     > 1);
  List.iteri
    (fun i (r : Driver.result) ->
       Alcotest.(check (list string))
         (Printf.sprintf "run %d: identical reports in identical order" i)
         (List.map report_fingerprint first.Driver.reports)
         (List.map report_fingerprint r.Driver.reports);
       Alcotest.(check string)
         (Printf.sprintf "run %d: identical per-run statistics" i)
         (stats_fingerprint alone)
         (stats_fingerprint r.Driver.stats))
    (seq.Sessions.results @ par.Sessions.results);
  List.iter
    (fun (what, r) ->
       let sum f =
         List.fold_left (fun acc (r : Driver.result) -> acc + f r.Driver.stats)
           0 r.Sessions.results
       in
       let total = sum (fun s -> s.Driver.searches_total) in
       Alcotest.(check int) (what ^ ": every query counted")
         (test_jobs * alone.Driver.searches_total)
         total;
       Alcotest.(check int) (what ^ ": one miss per distinct query")
         (alone.Driver.searches_total - alone.Driver.searches_cached)
         (total - sum (fun s -> s.Driver.searches_cached)))
    [ ("sequential", seq); ("concurrent", par) ]

(* ------------------------------------------------------------------ *)
(* Determinism: the per-app experiment fan-out                         *)

let measurement_fingerprint (m : Evalharness.Runner.measurement) =
  (* everything except wall-clock time and the parallelism stamp *)
  Printf.sprintf "%s/%s to=%b err=%b sinks=%d stmts=%d mb=%.2f ins=%d \
                  scr=%.4f skr=%.4f loops=%d cross=%d"
    m.Evalharness.Runner.app
    (Evalharness.Runner.tool_name m.Evalharness.Runner.tool)
    m.Evalharness.Runner.timed_out m.Evalharness.Runner.errored
    m.Evalharness.Runner.sink_calls m.Evalharness.Runner.size_stmts
    m.Evalharness.Runner.size_mb m.Evalharness.Runner.insecure
    m.Evalharness.Runner.search_cache_rate
    m.Evalharness.Runner.sink_cache_rate m.Evalharness.Runner.loops
    m.Evalharness.Runner.cross_backward_loops

let test_corpus_determinism () =
  let opts jobs =
    { Evalharness.Experiments.default_opts with
      Evalharness.Experiments.scale = 0.15;
      count = 6;
      timeout_s = 5.0;          (* generous: timeouts must not differ *)
      flowdroid_timeout_s = 5.0;
      jobs }
  in
  let seq = Evalharness.Experiments.run_corpus (opts 1) in
  let par = Evalharness.Experiments.run_corpus (opts test_jobs) in
  let fps (r : Evalharness.Experiments.corpus_run) =
    List.map measurement_fingerprint
      (r.Evalharness.Experiments.backdroid
       @ r.Evalharness.Experiments.amandroid
       @ r.Evalharness.Experiments.flowdroid)
  in
  Alcotest.(check (list string))
    "identical measurements in corpus order (timings aside)" (fps seq)
    (fps par);
  List.iter
    (fun (m : Evalharness.Runner.measurement) ->
       Alcotest.(check int) "parallelism stamped" test_jobs
         m.Evalharness.Runner.parallelism)
    par.Evalharness.Experiments.backdroid

let cases =
  [ Alcotest.test_case "map: empty input" `Quick test_map_empty;
    Alcotest.test_case "map: order preserved" `Quick test_map_order;
    Alcotest.test_case "exception propagation" `Quick test_exception_propagation;
    Alcotest.test_case "nested batches" `Quick test_nested_map;
    Alcotest.test_case "async runs only on workers" `Quick
      test_async_on_workers;
    Alcotest.test_case "once: racing domains compute once" `Quick
      test_once_computes_once;
    Alcotest.test_case "once: a failed compute is retried" `Quick
      test_once_failure_retries;
    Alcotest.test_case
      "scan == lazy == snapshot == delta at jobs=1 and jobs=4"
      `Quick test_mode_equivalence;
    Alcotest.test_case "driver: jobs=1 == jobs=4" `Quick
      test_driver_determinism;
    Alcotest.test_case "corpus: jobs=1 == jobs=4" `Slow
      test_corpus_determinism ]

let suites = [ "parallel.pool", cases ]
