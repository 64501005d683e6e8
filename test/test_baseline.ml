(* Tests for the whole-app baselines: detection parity, the documented
   Amandroid gaps (liblist, async edges, unregistered components), timeouts,
   and the FlowDroid CG-only builder. *)

module G = Appgen.Generator
module Shape = Appgen.Shape
module Sinks = Framework.Sinks
module Am = Baseline.Amandroid
module Detectors = Backdroid.Detectors

let make_app ?(filler = 4) ?(seed = 31) shape sink insecure =
  G.generate
    { G.default_config with
      G.seed;
      name = "com.btest." ^ Shape.to_string shape;
      filler_classes = filler;
      plants = [ { G.shape; sink; insecure } ] }

let run ?(cfg = Am.default_config) (app : G.app) =
  Am.analyze ~cfg ~program:app.program ~manifest:app.manifest ()

let insecure_count r = List.length (Am.insecure_findings r.Am.outcome)

let robust_cfg =
  { Am.default_config with Am.cg = Baseline.Callgraph.robust_config }

(* --- detection parity on simple shapes --- *)

let parity_shapes =
  [ Shape.Direct; Shape.Static_chain; Shape.Child_class; Shape.Super_class;
    Shape.Interface_dispatch; Shape.Async_thread; Shape.Icc_explicit;
    Shape.Lifecycle_field; Shape.Clinit_field ]

let parity_cases =
  List.map
    (fun shape ->
       Alcotest.test_case (Shape.to_string shape) `Quick (fun () ->
           let app = make_app shape Sinks.cipher true in
           let r = run app in
           Alcotest.(check int)
             (Shape.to_string shape ^ " detected by whole-app analysis")
             1 (insecure_count r)))
    parity_shapes

(* --- the documented gaps --- *)

let gap_cases =
  [ Alcotest.test_case "skipped library is a FN" `Quick (fun () ->
        let app = make_app Shape.Skipped_lib Sinks.cipher true in
        Alcotest.(check int) "missed due to liblist" 0 (insecure_count (run app));
        Alcotest.(check int) "found without liblist" 1
          (insecure_count (run ~cfg:robust_cfg app)));
    Alcotest.test_case "executor async flow is a FN" `Quick (fun () ->
        let app = make_app Shape.Async_executor Sinks.cipher true in
        Alcotest.(check int) "missed (no execute->run edge)" 0
          (insecure_count (run app));
        Alcotest.(check int) "found with robust async" 1
          (insecure_count (run ~cfg:robust_cfg app)));
    Alcotest.test_case "asynctask flow is a FN" `Quick (fun () ->
        let app = make_app Shape.Async_task Sinks.cipher true in
        Alcotest.(check int) "missed" 0 (insecure_count (run app));
        Alcotest.(check int) "found with robust async" 1
          (insecure_count (run ~cfg:robust_cfg app)));
    Alcotest.test_case "onClick callback is a FN" `Quick (fun () ->
        let app = make_app Shape.Callback Sinks.cipher true in
        Alcotest.(check int) "missed" 0 (insecure_count (run app));
        Alcotest.(check int) "found with robust async" 1
          (insecure_count (run ~cfg:robust_cfg app)));
    Alcotest.test_case "unregistered component is a FP" `Quick (fun () ->
        let app = make_app Shape.Unregistered_component Sinks.ssl_factory true in
        Alcotest.(check int) "reported although deactivated" 1
          (insecure_count (run app));
        Alcotest.(check int) "not reported with precise entries" 0
          (insecure_count (run ~cfg:robust_cfg app)));
    Alcotest.test_case "subclassed sink detected (CHA resolves it)" `Quick
      (fun () ->
        let app = make_app Shape.Subclassed_sink Sinks.ssl_factory true in
        Alcotest.(check int) "whole-app analysis sees through the subclass" 1
          (insecure_count (run app)));
    Alcotest.test_case "dead code not reported" `Quick (fun () ->
        let app = make_app Shape.Dead_code Sinks.cipher true in
        Alcotest.(check int) "dead code skipped" 0 (insecure_count (run app))) ]

(* --- timeout and error behaviour --- *)

let failure_cases =
  [ Alcotest.test_case "expired deadline times out" `Quick (fun () ->
        let app = make_app ~filler:60 Shape.Direct Sinks.cipher true in
        let cfg =
          { Am.default_config with Am.deadline = Some (Unix.gettimeofday () -. 1.0) }
        in
        (match (run ~cfg app).Am.outcome with
         | Am.Timed_out -> ()
         | Am.Completed _ -> Alcotest.fail "expected timeout"
         | Am.Errored e -> Alcotest.fail ("unexpected error " ^ e)));
    Alcotest.test_case "generous deadline completes" `Quick (fun () ->
        let app = make_app Shape.Direct Sinks.cipher true in
        let cfg =
          { Am.default_config with
            Am.deadline = Some (Unix.gettimeofday () +. 60.0) }
        in
        (match (run ~cfg app).Am.outcome with
         | Am.Completed _ -> ()
         | Am.Timed_out -> Alcotest.fail "unexpected timeout"
         | Am.Errored e -> Alcotest.fail ("unexpected error " ^ e)));
    Alcotest.test_case "error injection is deterministic" `Quick (fun () ->
        let app = make_app Shape.Direct Sinks.cipher true in
        let cfg = { Am.default_config with Am.error_rate = 1.0 } in
        (match (run ~cfg app).Am.outcome with
         | Am.Errored _ -> ()
         | _ -> Alcotest.fail "expected simulated error");
        match (run ~cfg app).Am.outcome with
        | Am.Errored _ -> ()
        | _ -> Alcotest.fail "expected the same error on re-run") ]

(* --- call graph --- *)

let cg_cases =
  [ Alcotest.test_case "filler dispatch inflates CG edges" `Quick (fun () ->
        let small = make_app ~filler:5 ~seed:8 Shape.Direct Sinks.cipher true in
        let big = make_app ~filler:40 ~seed:8 Shape.Direct Sinks.cipher true in
        let e n (app : G.app) =
          let cg = Baseline.Callgraph.build app.program app.manifest in
          ignore n;
          cg.Baseline.Callgraph.edge_count
        in
        let es = e "small" small and eb = e "big" big in
        Alcotest.(check bool)
          (Printf.sprintf "edges grow superlinearly (%d vs %d)" es eb)
          true
          (eb > 4 * es));
    Alcotest.test_case "flowdroid CG counts contexts" `Quick (fun () ->
        let app = make_app ~filler:10 Shape.Direct Sinks.cipher true in
        let r = Baseline.Flowdroid_cg.build app.program app.manifest in
        Alcotest.(check bool) "methods reachable" true
          (r.Baseline.Flowdroid_cg.methods > 10);
        Alcotest.(check bool) "contexts >= methods" true
          (r.Baseline.Flowdroid_cg.contexts >= r.Baseline.Flowdroid_cg.methods));
    Alcotest.test_case "flowdroid CG times out on expired deadline" `Quick
      (fun () ->
        let app = make_app ~filler:30 Shape.Direct Sinks.cipher true in
        let cfg =
          { Baseline.Flowdroid_cg.default_config with
            Baseline.Flowdroid_cg.deadline = Some (Unix.gettimeofday () -. 1.0) }
        in
        match Baseline.Flowdroid_cg.build ~cfg app.program app.manifest with
        | exception Baseline.Flowdroid_cg.Timeout -> ()
        | _ -> Alcotest.fail "expected timeout");
    Alcotest.test_case "liblist matcher" `Quick (fun () ->
        Alcotest.(check bool) "tencent skipped" true
          (Baseline.Liblist.skipped "com.tencent.smtt.utils.LogFileUtils");
        Alcotest.(check bool) "prefix only at package boundary" false
          (Baseline.Liblist.skipped "com.tencentish.Foo");
        Alcotest.(check bool) "app code kept" false
          (Baseline.Liblist.skipped "com.example.app.Main")) ]

let suites =
  [ "baseline.parity", parity_cases;
    "baseline.gaps", gap_cases;
    "baseline.failures", failure_cases;
    "baseline.cg", cg_cases ]
