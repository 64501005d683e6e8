(* Tests for the always-on diagnostics layer: the per-domain Ring storage,
   the Flight recorder (record, dump, parse/validate round-trip, anomaly
   auto-dump on partial outcomes), the per-sink Provenance ledger
   (presence on every report, replay distinction, determinism across pool
   widths, render stability), the OpenMetrics exposition with its strict
   validator, histogram quantiles, and Chrome 'C' counter events. *)

module Pool = Parallel.Pool
module G = Appgen.Generator
module Driver = Backdroid.Driver
module Provenance = Backdroid.Provenance

(* Every test that records restores the global default state (no sink,
   metrics zeroed, flight ring empty and re-enabled) so order is moot. *)
let with_clean_obs f =
  Obs.Span.set_sink None;
  Obs.Metrics.reset ();
  Obs.Flight.reset ();
  Obs.Flight.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
        Obs.Span.set_sink None;
        Obs.Metrics.set_enabled true;
        Obs.Metrics.reset ();
        Obs.Flight.set_enabled true;
        Obs.Flight.reset ())
    f

let fixture_app ?(seed = 11) () =
  let rng = Appgen.Rng.create (seed * 31) in
  let plants =
    List.init 6 (fun _ -> Appgen.Corpus.random_plant rng ~insecure_p:0.5)
  in
  G.generate
    { G.default_config with
      G.seed;
      name = Printf.sprintf "com.flight.app%d" seed;
      filler_classes = 30;
      plants }

(* ------------------------------------------------------------------ *)
(* Ring: wrap-around semantics, single domain and across a pool         *)

let test_ring_wraps () =
  let r = Obs.Ring.create ~capacity:16 () in
  Alcotest.(check int) "capacity floor applied" 16 (Obs.Ring.capacity r);
  for i = 1 to 10 do Obs.Ring.push r i done;
  Alcotest.(check (list int)) "growth phase keeps everything, oldest first"
    (List.init 10 (fun i -> i + 1))
    (Obs.Ring.snapshot r);
  for i = 11 to 40 do Obs.Ring.push r i done;
  Alcotest.(check int) "retained clamps at capacity" 16 (Obs.Ring.length r);
  Alcotest.(check int) "total counts every push" 40 (Obs.Ring.total r);
  Alcotest.(check int) "overwritten = total - retained" 24
    (Obs.Ring.overwritten r);
  Alcotest.(check (list int)) "wrap retains the most recent, oldest first"
    (List.init 16 (fun i -> i + 25))
    (Obs.Ring.snapshot r);
  Obs.Ring.clear r;
  Alcotest.(check int) "clear empties retention" 0 (Obs.Ring.length r);
  Alcotest.(check int) "clear resets the push count" 0 (Obs.Ring.total r)

let test_ring_across_pool () =
  let r = Obs.Ring.create ~capacity:16 () in
  let n = 64 and per = 25 in
  ignore
    (Pool.with_pool ~jobs:4 (fun pool ->
         Pool.parallel_map pool
           (fun k ->
              for i = 0 to per - 1 do
                Obs.Ring.push r ((k * 1000) + i)
              done;
              k)
           (Array.init n (fun i -> i))));
  Alcotest.(check int) "every push counted across shards" (n * per)
    (Obs.Ring.total r);
  let snap = Obs.Ring.snapshot r in
  Alcotest.(check int) "snapshot matches retained length"
    (Obs.Ring.length r) (List.length snap);
  Alcotest.(check bool) "each shard retains at most capacity" true
    (Obs.Ring.length r <= n * per);
  (* every retained item is a real push, and each shard's retention is the
     tail of some task's sequence (values within a task were pushed in
     order, so a retained early index implies its task pushed nothing
     newer on that shard before it survived) *)
  List.iter
    (fun v ->
       let k = v / 1000 and i = v mod 1000 in
       Alcotest.(check bool)
         (Printf.sprintf "retained item %d is a real push" v)
         true
         (k >= 0 && k < n && i >= 0 && i < per))
    snap

(* ------------------------------------------------------------------ *)
(* Flight: record, dump render/parse round-trip, enable toggle          *)

let test_flight_record_roundtrip () =
  with_clean_obs (fun () ->
      Obs.Flight.record ~kind:"span" ~name:"slice"
        ~attrs:[ ("work", Obs.Span.Int 7) ] ();
      Obs.Flight.record ~kind:"counters" ~name:"driver"
        ~attrs:[ ("driver.sink_calls", Obs.Span.Int 3) ] ();
      Obs.Flight.anomaly ~kind:"test" ~name:"synthetic" ();
      Alcotest.(check int) "three events retained" 3 (Obs.Flight.length ());
      Alcotest.(check int) "anomaly counted" 1 (Obs.Flight.anomalies ());
      let evs = Obs.Flight.events () in
      (match Obs.Flight.validate evs with
       | Ok () -> ()
       | Error e -> Alcotest.fail ("stream invalid: " ^ e));
      Alcotest.(check bool) "anomaly kind prefixed" true
        (List.exists (fun e -> e.Obs.Flight.ev_kind = "anomaly.test") evs);
      Alcotest.(check bool) "render/parse round-trip" true
        (Obs.Flight.round_trips evs);
      Obs.Flight.set_enabled false;
      Obs.Flight.record ~kind:"span" ~name:"ignored" ();
      Alcotest.(check int) "disabled recorder drops" 3 (Obs.Flight.length ()))

(* A budget-exhausted slice must auto-write a valid dump to the armed
   path — the end-to-end "black box survives the incident" property. *)
let test_flight_dump_on_partial () =
  with_clean_obs (fun () ->
      let app = fixture_app () in
      let path = Filename.temp_file "backdroid_flight" ".json" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
           Obs.Flight.arm_auto_dump path;
           let cfg =
             { Driver.default_config with
               Driver.budget =
                 { Backdroid.Context.default_budget with
                   Backdroid.Context.max_work = 1 } }
           in
           let r =
             Driver.analyze ~cfg ~dex:app.G.dex ~manifest:app.G.manifest ()
           in
           Alcotest.(check bool) "fixture exhausts the tiny budget" true
             (r.Driver.stats.Driver.partial_sinks > 0);
           Alcotest.(check bool) "anomalies recorded" true
             (Obs.Flight.anomalies () > 0);
           let dump =
             In_channel.with_open_text path (fun ic ->
                 In_channel.input_all ic)
           in
           Alcotest.(check bool) "dump written" true
             (String.length dump > 0);
           match Obs.Flight.parse dump with
           | Error e -> Alcotest.fail ("dump does not parse: " ^ e)
           | Ok evs ->
             (match Obs.Flight.validate evs with
              | Ok () -> ()
              | Error e -> Alcotest.fail ("dump invalid: " ^ e));
             Alcotest.(check bool) "dump holds the anomaly event" true
               (List.exists
                  (fun e ->
                     String.length e.Obs.Flight.ev_kind > 8
                     && String.sub e.Obs.Flight.ev_kind 0 8 = "anomaly.")
                  evs)))

(* ------------------------------------------------------------------ *)
(* Provenance: presence, replay distinction, determinism, stability     *)

let test_provenance_on_reports () =
  with_clean_obs (fun () ->
      let app = fixture_app () in
      let r = Driver.analyze ~dex:app.G.dex ~manifest:app.G.manifest () in
      Alcotest.(check bool) "fixture has reports" true
        (r.Driver.reports <> []);
      let fresh =
        List.filter
          (fun (rep : Driver.sink_report) ->
             rep.prov.Provenance.p_source = Provenance.Fresh)
          r.Driver.reports
      in
      Alcotest.(check bool) "cold run slices at least one sink fresh" true
        (fresh <> []);
      List.iter
        (fun (rep : Driver.sink_report) ->
           let p = rep.prov in
           Alcotest.(check bool) "budget caps carried" true
             (p.Provenance.p_max_work > 0 && p.Provenance.p_depth_limit > 0);
           if p.Provenance.p_source = Provenance.Fresh then begin
             Alcotest.(check bool) "fresh slice spent work" true
               (p.Provenance.p_work > 0);
             Alcotest.(check bool) "fresh slice has an SSG" true
               (p.Provenance.p_ssg_nodes > 0)
           end)
        r.Driver.reports)

let test_provenance_replay_distinct () =
  with_clean_obs (fun () ->
      let app = fixture_app () in
      let r1 = Driver.analyze ~dex:app.G.dex ~manifest:app.G.manifest () in
      let rc = Driver.export_results ~dex:app.G.dex r1 in
      let r2 =
        Driver.analyze ~results:rc ~dex:app.G.dex ~manifest:app.G.manifest ()
      in
      Alcotest.(check bool) "unchanged app replays sinks" true
        (r2.Driver.stats.Driver.replayed_sinks > 0);
      let replayed =
        List.filter
          (fun (rep : Driver.sink_report) ->
             rep.prov.Provenance.p_source = Provenance.Replayed)
          r2.Driver.reports
      in
      Alcotest.(check int) "every replayed sink is marked in its ledger"
        r2.Driver.stats.Driver.replayed_sinks
        (List.length replayed);
      List.iter
        (fun (rep : Driver.sink_report) ->
           Alcotest.(check string) "replayed ledger renders its source"
             "    source: replayed\n"
             (Provenance.render ~timing:false rep.prov))
        replayed)

let report_order_key (rep : Driver.sink_report) =
  Printf.sprintf "%s|%s|%d" rep.sink.Framework.Sinks.name
    (Ir.Jsig.meth_to_string rep.meth) rep.site

(* With its wall time zeroed, every report's whole ledger is equal at
   jobs 1 and 4: no field depends on which domain ran the slice or which
   slice paid a shared search miss. *)
let test_provenance_jobs_deterministic () =
  with_clean_obs (fun () ->
      let app = fixture_app () in
      let ledgers jobs =
        Obs.Metrics.reset ();
        Obs.Flight.reset ();
        let r =
          Driver.analyze
            ~cfg:{ Driver.default_config with Driver.jobs }
            ~dex:app.G.dex ~manifest:app.G.manifest ()
        in
        List.map
          (fun (rep : Driver.sink_report) ->
             ( report_order_key rep,
               Provenance.render ~timing:false rep.prov,
               { rep.prov with Provenance.p_wall_us = 0.0 } ))
          r.Driver.reports
        |> List.sort compare
      in
      let l1 = ledgers 1 and l4 = ledgers 4 in
      Alcotest.(check int) "same report count" (List.length l1)
        (List.length l4);
      List.iter2
        (fun (id1, render1, p1) (id4, render4, p4) ->
           Alcotest.(check string) "same report set" id1 id4;
           Alcotest.(check string) ("stable render of " ^ id1) render1
             render4;
           Alcotest.(check bool) ("whole ledger of " ^ id1) true (p1 = p4))
        l1 l4)

(* ------------------------------------------------------------------ *)
(* OpenMetrics: real snapshot passes; the validator rejects malformed   *)

let test_openmetrics_valid () =
  with_clean_obs (fun () ->
      let app = fixture_app () in
      ignore (Driver.analyze ~dex:app.G.dex ~manifest:app.G.manifest ());
      let text = Obs.Export.openmetrics (Obs.Metrics.snapshot ()) in
      (match Obs.Export.validate text with
       | Ok () -> ()
       | Error e -> Alcotest.fail ("exposition rejected: " ^ e));
      Alcotest.(check bool) "prefixed counter present" true
        (let sub = "# TYPE backdroid_driver_sink_calls counter\n" in
         let rec mem i =
           i + String.length sub <= String.length text
           && (String.sub text i (String.length sub) = sub || mem (i + 1))
         in
         mem 0);
      Alcotest.(check bool) "ends with EOF marker" true
        (let tail = "# EOF\n" in
         String.length text >= String.length tail
         && String.sub text
              (String.length text - String.length tail)
              (String.length tail)
            = tail))

let test_openmetrics_rejects () =
  let reject what text =
    match Obs.Export.validate text with
    | Ok () -> Alcotest.failf "validator accepted %s" what
    | Error _ -> ()
  in
  (match Obs.Export.validate "# TYPE a counter\na_total 1\n# EOF\n" with
   | Ok () -> ()
   | Error e -> Alcotest.fail ("minimal exposition rejected: " ^ e));
  reject "a missing EOF terminator" "# TYPE a counter\na_total 1\n";
  reject "a sample before any TYPE" "a_total 1\n# EOF\n";
  reject "an interleaved family"
    "# TYPE a counter\na_total 1\n# TYPE b counter\nb_total 1\n\
     # TYPE a counter\na_total 2\n# EOF\n";
  reject "an unparseable value" "# TYPE a counter\na_total x\n# EOF\n";
  reject "content after EOF" "# TYPE a counter\na_total 1\n# EOF\nmore\n";
  reject "a counter sample with labels"
    "# TYPE a counter\na_total{l=\"v\"} 1\n# EOF\n";
  reject "a sample outside its family"
    "# TYPE a counter\nb_total 1\n# EOF\n";
  reject "an empty line" "# TYPE a counter\n\na_total 1\n# EOF\n";
  reject "a bad metric name" "# TYPE 9a counter\n9a_total 1\n# EOF\n"

(* ------------------------------------------------------------------ *)
(* Quantiles: monotone, clamped to the observed range                   *)

let test_quantiles () =
  with_clean_obs (fun () ->
      let h = Obs.Metrics.histogram "test.quantile.h" in
      for i = 1 to 1000 do
        Obs.Metrics.observe h (float_of_int i)
      done;
      let snap = Obs.Metrics.snapshot () in
      let histo = List.assoc "test.quantile.h" snap.Obs.Metrics.histograms in
      let p50 = Obs.Metrics.quantile histo 0.5
      and p90 = Obs.Metrics.quantile histo 0.9
      and p99 = Obs.Metrics.quantile histo 0.99 in
      Alcotest.(check bool) "p50 <= p90 <= p99" true (p50 <= p90 && p90 <= p99);
      List.iter
        (fun (q, v) ->
           Alcotest.(check bool)
             (Printf.sprintf "p%.0f within observed range" (100. *. q))
             true
             (v >= histo.Obs.Metrics.h_min && v <= histo.Obs.Metrics.h_max))
        [ (0.5, p50); (0.9, p90); (0.99, p99) ];
      (* the log2 buckets bound the estimate within a factor of two *)
      Alcotest.(check bool) "p50 in the right decade" true
        (p50 >= 250.0 && p50 <= 1000.0))

(* ------------------------------------------------------------------ *)
(* Chrome 'C' counter events: valid streams, round-trip                 *)

let mk_span ?(pid = 0) ?(tid = 0) ~name t0 t1 =
  { Obs.Span.cat = "t"; name; pid; tid; t0_us = t0; t1_us = t1; attrs = [] }

let test_chrome_counter_events () =
  let spans = [ mk_span ~name:"a" 0.0 100.0; mk_span ~name:"b" 10.0 40.0 ] in
  let counters =
    [ { Obs.Chrome.c_ts_us = 5.0; c_pid = 0; c_name = "driver.sink_calls";
        c_value = 3.0 };
      { Obs.Chrome.c_ts_us = 50.0; c_pid = 0; c_name = "driver.ssg_nodes";
        c_value = 17.0 } ]
  in
  let events = Obs.Chrome.events_of_spans ~counters spans in
  Alcotest.(check int) "two B/E pairs plus two counter samples" 6
    (List.length events);
  Alcotest.(check int) "counter samples carried through" 2
    (List.length
       (List.filter (fun e -> e.Obs.Chrome.e_ph = 'C') events));
  (match Obs.Chrome.validate events with
   | Ok () -> ()
   | Error e -> Alcotest.fail ("stream with counters invalid: " ^ e));
  Alcotest.(check bool) "counter stream round-trips" true
    (Obs.Chrome.round_trips events)

let cases =
  [ Alcotest.test_case "ring wraps retaining the most recent" `Quick
      test_ring_wraps;
    Alcotest.test_case "ring shards across a pool" `Quick
      test_ring_across_pool;
    Alcotest.test_case "flight record and round-trip" `Quick
      test_flight_record_roundtrip;
    Alcotest.test_case "partial slice auto-dumps a valid flight file" `Quick
      test_flight_dump_on_partial;
    Alcotest.test_case "every report carries a ledger" `Quick
      test_provenance_on_reports;
    Alcotest.test_case "replayed sinks are distinguishable" `Quick
      test_provenance_replay_distinct;
    Alcotest.test_case "ledgers identical at jobs 1 and 4" `Quick
      test_provenance_jobs_deterministic;
    Alcotest.test_case "openmetrics exposition validates" `Quick
      test_openmetrics_valid;
    Alcotest.test_case "openmetrics validator rejects malformed" `Quick
      test_openmetrics_rejects;
    Alcotest.test_case "histogram quantiles are sane" `Quick test_quantiles;
    Alcotest.test_case "chrome counter events" `Quick
      test_chrome_counter_events ]

let suites = [ ("obs.flight", cases) ]
