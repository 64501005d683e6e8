(* End-to-end tests: one generated app per code shape, analyzed by the full
   BackDroid pipeline (initial search -> slicing/SSG -> forward analysis ->
   detectors).  These are the core correctness tests of the reproduction:
   each shape exercises one search mechanism of Sec. IV. *)

module G = Appgen.Generator
module Shape = Appgen.Shape
module Sinks = Framework.Sinks
module Driver = Backdroid.Driver
module Detectors = Backdroid.Detectors

let analyze_app ?(cfg = Driver.default_config) (app : G.app) =
  Driver.analyze ~cfg ~dex:app.dex ~manifest:app.manifest ()

let make_app ?(filler = 3) shape sink insecure =
  G.generate
    { G.default_config with
      G.seed = 77;
      name = "com.test." ^ Shape.to_string shape;
      filler_classes = filler;
      plants = [ { G.shape; sink; insecure } ] }

let analyze_shape ?cfg shape sink insecure =
  analyze_app ?cfg (make_app shape sink insecure)

let count_insecure r = List.length (Driver.insecure_reports r)

let reachable_reports (r : Driver.result) =
  List.filter (fun (rep : Driver.sink_report) -> rep.reachable) r.reports

(* ------------------------------------------------------------------ *)

let check_detects shape sink () =
  let r = analyze_shape shape sink true in
  Alcotest.(check bool)
    (Shape.to_string shape ^ " finds a sink occurrence")
    true
    (List.length r.reports >= 1);
  Alcotest.(check bool)
    (Shape.to_string shape ^ " reaches an entry point")
    true
    (List.length (reachable_reports r) >= 1);
  Alcotest.(check int)
    (Shape.to_string shape ^ " flags exactly one insecure sink")
    1 (count_insecure r)

let check_secure shape sink () =
  let r = analyze_shape shape sink false in
  Alcotest.(check int)
    (Shape.to_string shape ^ " has no insecure report when secure")
    0 (count_insecure r);
  Alcotest.(check bool)
    (Shape.to_string shape ^ " still reaches the entry (secure variant)")
    true
    (List.length (reachable_reports r) >= 1);
  let secure_verdicts =
    List.filter
      (fun (rep : Driver.sink_report) -> rep.verdict = Detectors.Secure)
      r.reports
  in
  Alcotest.(check bool)
    (Shape.to_string shape ^ " resolves the secure parameter")
    true
    (List.length secure_verdicts >= 1)

let check_not_reported shape sink () =
  let r = analyze_shape shape sink true in
  Alcotest.(check int)
    (Shape.to_string shape ^ " reports nothing (flow not valid)")
    0 (count_insecure r)

let detectable_shapes =
  [ Shape.Direct; Shape.Static_chain; Shape.Child_class; Shape.Super_class;
    Shape.Interface_dispatch; Shape.Callback; Shape.Async_thread;
    Shape.Async_executor; Shape.Async_task; Shape.Static_init;
    Shape.Clinit_field; Shape.Icc_explicit; Shape.Icc_implicit;
    Shape.Lifecycle_field; Shape.Skipped_lib; Shape.Recursive_chain ]

let crypto_cases =
  List.map
    (fun shape ->
       Alcotest.test_case
         ("crypto/" ^ Shape.to_string shape)
         `Quick
         (check_detects shape Sinks.cipher))
    detectable_shapes

let ssl_cases =
  List.map
    (fun shape ->
       Alcotest.test_case
         ("ssl/" ^ Shape.to_string shape)
         `Quick
         (check_detects shape Sinks.ssl_factory))
    detectable_shapes

let https_shapes =
  [ Shape.Direct; Shape.Callback; Shape.Async_thread; Shape.Super_class ]

let https_cases =
  List.map
    (fun shape ->
       Alcotest.test_case
         ("https/" ^ Shape.to_string shape)
         `Quick
         (check_detects shape Sinks.https_conn))
    https_shapes

let secure_cases =
  List.map
    (fun (shape, sink, name) ->
       Alcotest.test_case ("secure/" ^ name) `Quick (check_secure shape sink))
    [ Shape.Direct, Sinks.cipher, "crypto-direct";
      Shape.Static_chain, Sinks.cipher, "crypto-chain";
      Shape.Callback, Sinks.cipher, "crypto-callback";
      Shape.Direct, Sinks.ssl_factory, "ssl-direct";
      Shape.Async_thread, Sinks.ssl_factory, "ssl-thread";
      Shape.Direct, Sinks.https_conn, "https-direct" ]

let negative_cases =
  [ Alcotest.test_case "dead-code not reported" `Quick
      (check_not_reported Shape.Dead_code Sinks.cipher);
    Alcotest.test_case "unregistered component not reported" `Quick
      (check_not_reported Shape.Unregistered_component Sinks.ssl_factory);
    Alcotest.test_case "dead-code sink is found but unreachable" `Quick
      (fun () ->
         let r = analyze_shape Shape.Dead_code Sinks.cipher true in
         Alcotest.(check bool) "occurrence found" true (List.length r.reports >= 1);
         Alcotest.(check int) "no reachable report" 0
           (List.length (reachable_reports r)));
    Alcotest.test_case "static-init unreachable variant not reported" `Quick
      (fun () ->
         (* a <clinit> sink whose class is never used from any entry class *)
         let ctx = { Appgen.Templates.ns = "com.test.ci0"; rng = Appgen.Rng.create 5 } in
         let tr =
           Appgen.Templates.plant_static_init ~reachable:false ctx
             ~sink:Sinks.cipher ~insecure:true
         in
         let classes = Framework.Stubs.classes () @ tr.classes in
         let program = Ir.Program.of_classes classes in
         let manifest =
           Manifest.App_manifest.make ~package:"com.test.ci0"
             ~components:tr.components
         in
         let dex = Dex.Dexfile.of_program program in
         let r = Driver.analyze ~dex ~manifest () in
         Alcotest.(check int) "not reported" 0 (count_insecure r)) ]

(* The documented BackDroid FN and its fix (Sec. VI-C + discussion). *)
let subclassed_sink_cases =
  [ Alcotest.test_case "subclassed sink missed by default" `Quick (fun () ->
        let r = analyze_shape Shape.Subclassed_sink Sinks.ssl_factory true in
        Alcotest.(check int) "initial search misses the subclass invocation" 0
          (List.length r.reports));
    Alcotest.test_case "subclassed sink found with hierarchy-aware search"
      `Quick (fun () ->
        let cfg =
          { Driver.default_config with
            Driver.subclass_aware_initial_search = true }
        in
        let r = analyze_shape ~cfg Shape.Subclassed_sink Sinks.ssl_factory true in
        Alcotest.(check int) "detected with the fix" 1 (count_insecure r)) ]

(* Facts: the forward analysis recovers the exact parameter strings. *)
let fact_cases =
  [ Alcotest.test_case "crypto fact is the ECB spec string" `Quick (fun () ->
        let r = analyze_shape Shape.Direct Sinks.cipher true in
        match Driver.insecure_reports r with
        | [ rep ] ->
          Alcotest.(check string) "fact" "\"AES/ECB/PKCS5Padding\""
            (Backdroid.Facts.to_string rep.fact)
        | _ -> Alcotest.fail "expected one insecure report");
    Alcotest.test_case "icc fact crosses the Intent extra" `Quick (fun () ->
        let r = analyze_shape Shape.Icc_explicit Sinks.cipher true in
        match Driver.insecure_reports r with
        | [ rep ] ->
          Alcotest.(check string) "fact" "\"AES/ECB/PKCS5Padding\""
            (Backdroid.Facts.to_string rep.fact)
        | _ -> Alcotest.fail "expected one insecure report");
    Alcotest.test_case "ssl fact is the ALLOW_ALL field" `Quick (fun () ->
        let r = analyze_shape Shape.Direct Sinks.ssl_factory true in
        match Driver.insecure_reports r with
        | [ rep ] ->
          (match rep.fact with
           | Backdroid.Facts.Static_ref f ->
             Alcotest.(check string) "field" "ALLOW_ALL_HOSTNAME_VERIFIER"
               f.Ir.Jsig.fname
           | f -> Alcotest.fail ("unexpected fact " ^ Backdroid.Facts.to_string f))
        | _ -> Alcotest.fail "expected one insecure report") ]

(* SSG structural checks. *)
let ssg_cases =
  [ Alcotest.test_case "async SSG carries an Async edge" `Quick (fun () ->
        let r = analyze_shape Shape.Async_executor Sinks.cipher true in
        let has_async =
          List.exists
            (fun (rep : Driver.sink_report) ->
               match rep.ssg with
               | Some ssg ->
                 List.exists
                   (function Backdroid.Ssg.Async _ -> true | _ -> false)
                   ssg.Backdroid.Ssg.edges
               | None -> false)
            r.reports
        in
        Alcotest.(check bool) "async edge present" true has_async);
    Alcotest.test_case "fig4 chain recorded through util methods" `Quick
      (fun () ->
        let r = analyze_shape Shape.Async_executor Sinks.cipher true in
        let chain_len =
          List.fold_left
            (fun acc (rep : Driver.sink_report) ->
               match rep.ssg with
               | Some ssg ->
                 List.fold_left
                   (fun acc e ->
                      match e with
                      | Backdroid.Ssg.Async { chain; ending; _ } ->
                        Alcotest.(check string) "ending is Executor.execute"
                          "execute" ending.Ir.Jsig.name;
                        max acc (List.length chain)
                      | _ -> acc)
                   acc ssg.Backdroid.Ssg.edges
               | None -> acc)
            0 r.reports
        in
        Alcotest.(check bool) "chain passes through the two util methods" true
          (chain_len >= 2));
    Alcotest.test_case "icc SSG carries an Icc edge" `Quick (fun () ->
        let r = analyze_shape Shape.Icc_explicit Sinks.cipher true in
        let has_icc =
          List.exists
            (fun (rep : Driver.sink_report) ->
               match rep.ssg with
               | Some ssg ->
                 List.exists
                   (function Backdroid.Ssg.Icc _ -> true | _ -> false)
                   ssg.Backdroid.Ssg.edges
               | None -> false)
            r.reports
        in
        Alcotest.(check bool) "icc edge present" true has_icc);
    Alcotest.test_case "clinit-field SSG has a static track" `Quick (fun () ->
        let r = analyze_shape Shape.Clinit_field Sinks.cipher true in
        let has_track =
          List.exists
            (fun (rep : Driver.sink_report) ->
               match rep.ssg with
               | Some ssg -> ssg.Backdroid.Ssg.static_track <> []
               | None -> false)
            r.reports
        in
        Alcotest.(check bool) "static track present" true has_track);
    Alcotest.test_case "lifecycle SSG has a Lifecycle edge" `Quick (fun () ->
        let r = analyze_shape Shape.Lifecycle_field Sinks.cipher true in
        let has_lc =
          List.exists
            (fun (rep : Driver.sink_report) ->
               match rep.ssg with
               | Some ssg ->
                 List.exists
                   (function Backdroid.Ssg.Lifecycle _ -> true | _ -> false)
                   ssg.Backdroid.Ssg.edges
               | None -> false)
            r.reports
        in
        Alcotest.(check bool) "lifecycle edge present" true has_lc) ]

(* Multi-sink apps: caches and stats. *)
let stats_cases =
  [ Alcotest.test_case "multi-sink app analyzes all occurrences" `Quick
      (fun () ->
        let plants =
          List.map
            (fun s -> { G.shape = s; sink = Sinks.cipher; insecure = true })
            [ Shape.Direct; Shape.Static_chain; Shape.Callback;
              Shape.Async_thread; Shape.Super_class ]
        in
        let app =
          G.generate
            { G.default_config with
              G.seed = 11; name = "com.test.multi"; filler_classes = 5; plants }
        in
        let r = analyze_app app in
        Alcotest.(check int) "five sink calls" 5 r.stats.Driver.sink_calls;
        Alcotest.(check int) "five insecure" 5 (count_insecure r);
        Alcotest.(check bool) "search cache used" true
          (r.stats.Driver.search_cache_rate >= 0.0));
    Alcotest.test_case "repeated sinks in one method hit the sink cache" `Quick
      (fun () ->
        (* two dead-code plants in the same namespace share no method, so use
           one plant and re-run analysis: the reachability cache within one
           run is exercised by multi-sink apps above; here check the counter
           exists and is consistent *)
        let r = analyze_shape Shape.Dead_code Sinks.cipher true in
        Alcotest.(check bool) "lookups >= hits" true
          (r.stats.Driver.sink_cache_lookups >= r.stats.Driver.sink_cache_hits)) ]

let builder_cases =
  [ Alcotest.test_case "stringbuilder spec resolved (insecure)" `Quick
      (fun () ->
        let r = analyze_shape Shape.Builder_spec Sinks.cipher true in
        match Driver.insecure_reports r with
        | [ rep ] ->
          Alcotest.(check string) "concatenated fact"
            "\"AES/ECB/PKCS5Padding\""
            (Backdroid.Facts.to_string rep.fact)
        | l ->
          Alcotest.fail
            (Printf.sprintf "expected 1 insecure report, got %d" (List.length l)));
    Alcotest.test_case "stringbuilder spec resolved (secure)" `Quick (fun () ->
        let r = analyze_shape Shape.Builder_spec Sinks.cipher false in
        Alcotest.(check int) "no insecure" 0 (count_insecure r);
        Alcotest.(check bool) "secure verdict resolved" true
          (List.exists
             (fun (rep : Driver.sink_report) -> rep.verdict = Detectors.Secure)
             r.reports));
    Alcotest.test_case "stringbuilder spec on an ssl sink is planted secure"
      `Quick (fun () ->
        (* a cipher string where a HostnameVerifier goes misuses nothing *)
        let app = make_app Shape.Builder_spec Sinks.ssl_factory true in
        let planted = List.hd app.G.planted in
        Alcotest.(check bool) "planted label" false
          planted.Appgen.Templates.insecure;
        let r = analyze_app app in
        Alcotest.(check int) "no insecure" 0 (count_insecure r);
        Alcotest.(check bool) "sink reported unresolved" true
          (List.exists
             (fun (rep : Driver.sink_report) ->
                rep.reachable && rep.verdict = Detectors.Unresolved
                && rep.meth.Ir.Jsig.cls = planted.Appgen.Templates.sink_class)
             r.reports)) ]

let loop_cases =
  [ Alcotest.test_case "recursive chain triggers dead-loop detection" `Quick
      (fun () ->
        let r = analyze_shape Shape.Recursive_chain Sinks.cipher true in
        Alcotest.(check int) "detected" 1 (count_insecure r);
        let loops = Backdroid.Loopdetect.total r.stats.Driver.loops in
        Alcotest.(check bool)
          (Printf.sprintf "loops recorded (%d)" loops)
          true (loops >= 1);
        Alcotest.(check bool) "cross-backward loop present" true
          (Backdroid.Loopdetect.get r.stats.Driver.loops
             Backdroid.Loopdetect.Cross_backward
           >= 1)) ]

let base_suites =
  [ "shapes.crypto", crypto_cases;
    "shapes.ssl", ssl_cases;
    "shapes.https", https_cases;
    "shapes.secure", secure_cases;
    "shapes.negative", negative_cases;
    "shapes.subclassed", subclassed_sink_cases;
    "shapes.facts", fact_cases;
    "shapes.ssg", ssg_cases;
    "shapes.stats", stats_cases;
    "shapes.loops", loop_cases;
    "shapes.builder", builder_cases ]

(* Property: for every detectable shape, sink API and seed, BackDroid's
   verdict agrees with the generator's planted ground truth. *)
let ground_truth_agreement =
  QCheck.Test.make ~name:"detection agrees with ground truth" ~count:60
    QCheck.(
      make
        Gen.(
          let* shape = oneofl detectable_shapes in
          let* sink = oneofl Sinks.primary in
          let* insecure = bool in
          let* seed = int_bound 10_000 in
          return (shape, sink, insecure, seed)))
    (fun (shape, sink, insecure, seed) ->
       let app =
         G.generate
           { G.default_config with
             G.seed;
             name = "com.prop." ^ Shape.to_string shape;
             filler_classes = 2;
             plants = [ { G.shape; sink; insecure } ] }
       in
       let r = analyze_app app in
       let planted = List.hd app.G.planted in
       let expect =
         planted.Appgen.Templates.insecure && planted.Appgen.Templates.reachable
       in
       count_insecure r = (if expect then 1 else 0))

let prop_cases = [ QCheck_alcotest.to_alcotest ground_truth_agreement ]


(* Shared-util groups: several sinks behind one hub; the search cache and the
   per-plant reports must both reflect the group. *)
let shared_cases =
  [ Alcotest.test_case "shared-util group detects each member" `Quick (fun () ->
        let app =
          G.generate
            { G.default_config with
              G.seed = 19;
              name = "com.test.shared";
              filler_classes = 3;
              plants =
                List.init 5 (fun _ ->
                    { G.shape = Shape.Shared_util; sink = Sinks.cipher;
                      insecure = true }) }
        in
        let r = analyze_app app in
        Alcotest.(check int) "five planted records" 5 (List.length app.G.planted);
        Alcotest.(check int) "five sink occurrences" 5 r.stats.Driver.sink_calls;
        Alcotest.(check int) "five insecure reports" 5 (count_insecure r);
        Alcotest.(check bool)
          (Printf.sprintf "search cache hits (rate %.2f)"
             r.stats.Driver.search_cache_rate)
          true
          (r.stats.Driver.search_cache_rate > 0.2));
    Alcotest.test_case "shared-util secure group stays clean" `Quick (fun () ->
        let app =
          G.generate
            { G.default_config with
              G.seed = 20;
              name = "com.test.sharedsec";
              filler_classes = 3;
              plants =
                List.init 3 (fun _ ->
                    { G.shape = Shape.Shared_util; sink = Sinks.ssl_factory;
                      insecure = false }) }
        in
        let r = analyze_app app in
        Alcotest.(check int) "no insecure reports" 0 (count_insecure r)) ]


(* Extensions: reflection resolution (Sec. VII) and the per-app SSG
   (Sec. V-A future work). *)
let extension_cases =
  [ Alcotest.test_case "reflective sink missed by default" `Quick (fun () ->
        let r = analyze_shape Shape.Reflective_sink Sinks.cipher true in
        Alcotest.(check int) "occurrence found (the call is in app code)" 1
          (List.length r.reports);
        Alcotest.(check int) "but not reachable without de-reflection" 0
          (List.length (reachable_reports r)));
    Alcotest.test_case "reflective sink found with resolve_reflection" `Quick
      (fun () ->
        let cfg =
          { Driver.default_config with Driver.resolve_reflection = true }
        in
        let r = analyze_shape ~cfg Shape.Reflective_sink Sinks.cipher true in
        Alcotest.(check int) "detected after de-reflection" 1 (count_insecure r));
    Alcotest.test_case "reflection transform counts rewrites" `Quick (fun () ->
        let app = make_app Shape.Reflective_sink Sinks.cipher true in
        let _, n = Backdroid.Reflection.transform app.G.program in
        Alcotest.(check int) "one reflective call rewritten" 1 n;
        let clean = make_app Shape.Direct Sinks.cipher true in
        let _, n0 = Backdroid.Reflection.transform clean.G.program in
        Alcotest.(check int) "no rewrites in reflection-free app" 0 n0);
    Alcotest.test_case "baseline misses the reflective sink" `Quick (fun () ->
        let app = make_app Shape.Reflective_sink Sinks.cipher true in
        let r =
          Baseline.Amandroid.analyze ~program:app.G.program
            ~manifest:app.G.manifest ()
        in
        Alcotest.(check int) "reflection invisible to whole-app CHA" 0
          (List.length
             (Baseline.Amandroid.insecure_findings r.Baseline.Amandroid.outcome)));
    Alcotest.test_case "per-app SSG merges and dedupes" `Quick (fun () ->
        let app =
          G.generate
            { G.default_config with
              G.seed = 23;
              name = "com.test.perapp";
              filler_classes = 3;
              plants =
                List.init 4 (fun _ ->
                    { G.shape = Shape.Shared_util; sink = Sinks.cipher;
                      insecure = true }) }
        in
        let r = analyze_app app in
        let per_app = Driver.per_app_ssg r in
        let sum_nodes =
          List.fold_left
            (fun acc (rep : Driver.sink_report) ->
               match rep.ssg with
               | Some ssg -> acc + Backdroid.Ssg.node_count ssg
               | None -> acc)
            0 r.reports
        in
        Alcotest.(check int) "four sinks folded" 4
          (List.length per_app.Backdroid.Perapp_ssg.sinks);
        Alcotest.(check int) "all reachable" 4
          per_app.Backdroid.Perapp_ssg.reachable_sinks;
        Alcotest.(check bool)
          (Printf.sprintf "deduped (%d < %d)"
             (Backdroid.Perapp_ssg.node_count per_app) sum_nodes)
          true
          (Backdroid.Perapp_ssg.node_count per_app < sum_nodes)) ]

let suites =
  base_suites
  @ [ "shapes.shared", shared_cases;
      "shapes.extensions", extension_cases;
      "shapes.props", prop_cases ]
