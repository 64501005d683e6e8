(* Test runner: aggregates all suites. *)
let () =
  Alcotest.run "backdroid"
    (Test_sym.suites @ Test_ir.suites @ Test_dex.suites @ Test_search.suites
     @ Test_manifest.suites @ Test_appgen.suites @ Test_shapes.suites
     @ Test_baseline.suites @ Test_core_units.suites @ Test_eval.suites
     @ Test_robustness.suites @ Test_searches_deep.suites
     @ Test_resolver.suites @ Test_misc.suites @ Test_parallel.suites
     @ Test_obs.suites @ Test_flight.suites @ Test_store.suites
     @ Test_resultcache.suites
     @ Test_rules.suites @ Test_serve.suites @ Test_golden.suites)
