(* Tests for the telemetry layer (lib/obs): JSON fragment clamping, fd-safe
   artifact writes, span recording into the per-domain ring (retention of
   the newest spans, shard merging), metrics
   determinism across pool widths, Chrome trace-event export invariants
   (B/E pairing, strict ts monotonicity, render/parse round-trip) and the
   self-time summary. *)

module Pool = Parallel.Pool
module G = Appgen.Generator

let qcheck = QCheck_alcotest.to_alcotest

(* Every test that installs a span sink or bumps metrics restores the
   global default state (no sink, metrics zeroed) so suite order does not
   matter. *)
let with_clean_obs f =
  Obs.Span.set_sink None;
  Obs.Metrics.reset ();
  Fun.protect
    ~finally:(fun () ->
        Obs.Span.set_sink None;
        Obs.Metrics.set_enabled true;
        Obs.Metrics.reset ())
    f

(* ------------------------------------------------------------------ *)
(* Jsonf: non-finite floats must never reach an artifact                *)

let test_jsonf_clamp () =
  Alcotest.(check (float 0.0)) "nan -> 0" 0.0 (Obs.Jsonf.clamp Float.nan);
  Alcotest.(check (float 0.0)) "inf -> max_float" Float.max_float
    (Obs.Jsonf.clamp Float.infinity);
  Alcotest.(check (float 0.0)) "-inf -> -max_float" (-.Float.max_float)
    (Obs.Jsonf.clamp Float.neg_infinity);
  Alcotest.(check (float 1e-9)) "finite passes through" 42.5
    (Obs.Jsonf.clamp 42.5);
  List.iter
    (fun v ->
       let s = Obs.Jsonf.number v in
       Alcotest.(check bool)
         (Printf.sprintf "number %f has no inf/nan" v)
         false
         (List.exists
            (fun bad ->
               let rec mem i =
                 i + String.length bad <= String.length s
                 && (String.sub s i (String.length bad) = bad || mem (i + 1))
               in
               mem 0)
            [ "inf"; "nan" ]))
    [ Float.nan; Float.infinity; Float.neg_infinity; 1.5 ]

let test_jsonf_escape () =
  Alcotest.(check string) "quotes and backslash" "a\\\"b\\\\c"
    (Obs.Jsonf.escape "a\"b\\c");
  Alcotest.(check string) "control chars" "x\\n\\t\\u0001"
    (Obs.Jsonf.escape "x\n\t\001")

(* A non-finite resolution latency must not poison the Chrome trace that
   carries the resolve spans. *)
let test_trace_event_nonfinite () =
  let span =
    { Obs.Span.cat = "resolve"; name = "basic"; pid = 0; tid = 0;
      t0_us = 0.0; t1_us = Float.infinity;
      attrs =
        [ ("query", Obs.Span.Str "q\"uote"); ("hits", Obs.Span.Int 1);
          ("searches", Obs.Span.Int 2) ] }
  in
  let events = Obs.Chrome.events_of_spans [ span ] in
  Alcotest.(check int) "the span renders as one B/E pair" 2
    (List.length events);
  (match Obs.Chrome.validate events with
   | Ok () -> ()
   | Error e -> Alcotest.fail ("stream invalid: " ^ e));
  Alcotest.(check bool) "round-trips" true (Obs.Chrome.round_trips events);
  let json = Obs.Chrome.render events in
  Alcotest.(check bool) "array shape" true
    (String.length json > 2 && json.[0] = '['
     && String.trim json |> fun t -> t.[String.length t - 1] = ']');
  Alcotest.(check bool) "the query is escaped" true
    (Test_eval.contains json "\"query\":\"q\\\"uote\"");
  String.iteri
    (fun i c ->
       if c = 'i' || c = 'n' then
         (* "inf"/"nan" never appear outside the names and the query *)
         Alcotest.(check bool)
           (Printf.sprintf "no bare non-finite literal at %d" i)
           false
           (i + 3 <= String.length json
            && (String.sub json i 3 = "inf" || String.sub json i 3 = "nan")))
    json

(* ------------------------------------------------------------------ *)
(* Io: with_file_out must not leak the fd when the writer raises        *)

let open_fds () = Array.length (Sys.readdir "/proc/self/fd")

exception Boom

let test_io_no_fd_leak () =
  let path = Filename.temp_file "obs_io" ".json" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () ->
      let before = open_fds () in
      (try
         Obs.Io.with_file_out path (fun oc ->
             output_string oc "partial";
             raise Boom)
       with Boom -> ());
      Alcotest.(check int) "fd count restored" before (open_fds ());
      Obs.Io.write_string path "done";
      Alcotest.(check int) "fd count after write_string" before (open_fds ()))

(* ------------------------------------------------------------------ *)
(* Spans: disabled cost, nesting, pid scoping, exception emission       *)

let test_span_disabled_records_nothing () =
  with_clean_obs (fun () ->
      Alcotest.(check bool) "no sink installed" false (Obs.Span.enabled ());
      let r = Obs.Span.install_recorder () in
      Obs.Span.set_sink None;
      Obs.Span.with_span ~cat:"t" ~name:"noop" (fun () -> ());
      Alcotest.(check int) "recorder untouched" 0 (Obs.Ring.total r))

let test_span_nesting_and_attrs () =
  with_clean_obs (fun () ->
      let r = Obs.Span.install_recorder () in
      Obs.Span.with_span ~cat:"t" ~name:"outer" (fun () ->
          Obs.Span.with_span ~cat:"t" ~name:"inner"
            ~attrs:[ ("k", Obs.Span.Int 7) ]
            (fun () -> ()));
      Obs.Span.set_sink None;
      let spans = Obs.Ring.snapshot r in
      Alcotest.(check int) "two spans" 2 (List.length spans);
      let outer = List.find (fun s -> s.Obs.Span.name = "outer") spans in
      let inner = List.find (fun s -> s.Obs.Span.name = "inner") spans in
      Alcotest.(check bool) "inner nested in outer" true
        (inner.Obs.Span.t0_us >= outer.Obs.Span.t0_us
         && inner.Obs.Span.t1_us <= outer.Obs.Span.t1_us);
      Alcotest.(check bool) "attrs kept" true
        (inner.Obs.Span.attrs = [ ("k", Obs.Span.Int 7) ]))

let test_span_emitted_on_exception () =
  with_clean_obs (fun () ->
      let r = Obs.Span.install_recorder () in
      (try
         Obs.Span.with_span ~cat:"t" ~name:"raises" (fun () -> raise Boom)
       with Boom -> ());
      Obs.Span.set_sink None;
      Alcotest.(check int) "span still recorded" 1 (Obs.Ring.length r))

let test_span_pid_scoping () =
  with_clean_obs (fun () ->
      let r = Obs.Span.install_recorder () in
      Obs.Span.with_pid 42 (fun () ->
          Obs.Span.with_span ~cat:"t" ~name:"in" (fun () -> ()));
      Obs.Span.with_span ~cat:"t" ~name:"out" (fun () -> ());
      Obs.Span.set_sink None;
      let spans = Obs.Ring.snapshot r in
      let pid name =
        (List.find (fun s -> s.Obs.Span.name = name) spans).Obs.Span.pid
      in
      Alcotest.(check int) "scoped pid" 42 (pid "in");
      Alcotest.(check int) "default pid restored" 0 (pid "out"))

(* The recorder's retention: a ring past its capacity keeps each domain's
   newest spans, in order, and counts the older ones as overwritten. *)
let test_recorder_keeps_newest () =
  with_clean_obs (fun () ->
      let r = Obs.Ring.create ~capacity:16 () in
      Obs.Span.set_sink (Some (Obs.Ring.push r));
      for i = 1 to 40 do
        Obs.Span.with_span ~cat:"t" ~name:(string_of_int i) (fun () -> ())
      done;
      Obs.Span.set_sink None;
      Alcotest.(check int) "bounded" 16 (Obs.Ring.length r);
      Alcotest.(check int) "overflow counted as overwritten" 24
        (Obs.Ring.overwritten r);
      Alcotest.(check (list string)) "the newest 16, oldest first"
        (List.init 16 (fun i -> string_of_int (25 + i)))
        (List.map (fun s -> s.Obs.Span.name) (Obs.Ring.snapshot r));
      Obs.Ring.clear r;
      Alcotest.(check int) "cleared" 0 (Obs.Ring.length r))

(* One shard per pool domain, merged at snapshot: every span survives and
   the merged stream still satisfies the Chrome invariants. *)
let test_recorder_shards_across_pool () =
  with_clean_obs (fun () ->
      let r = Obs.Span.install_recorder () in
      let n = 500 in
      let out =
        Pool.with_pool ~jobs:4 (fun pool ->
            Pool.parallel_map pool
              (fun i ->
                 Obs.Span.with_span ~cat:"t" ~name:"task" (fun () -> i * 2))
              (Array.init n (fun i -> i)))
      in
      Obs.Span.set_sink None;
      Alcotest.(check int) "results intact" (n * (n - 1))
        (Array.fold_left ( + ) 0 out);
      let spans = Obs.Ring.snapshot r in
      Alcotest.(check int) "every span recorded" n (List.length spans);
      match Obs.Chrome.validate (Obs.Chrome.events_of_spans spans) with
      | Ok () -> ()
      | Error e -> Alcotest.fail ("merged stream invalid: " ^ e))

(* ------------------------------------------------------------------ *)
(* Metrics: shard merge, reset, determinism across pool widths          *)

let test_metrics_shard_merge () =
  with_clean_obs (fun () ->
      let c = Obs.Metrics.counter "test.merge.counter" in
      let h = Obs.Metrics.histogram "test.merge.histo" in
      let n = 200 in
      Pool.with_pool ~jobs:4 (fun pool ->
          ignore
            (Pool.parallel_map pool
               (fun i ->
                  Obs.Metrics.add c i;
                  Obs.Metrics.observe h (float_of_int (1 lsl (i mod 8))))
               (Array.init n (fun i -> i))));
      let snap = Obs.Metrics.snapshot () in
      Alcotest.(check int) "counter merged across shards"
        (n * (n - 1) / 2)
        (List.assoc "test.merge.counter" snap.Obs.Metrics.counters);
      let histo = List.assoc "test.merge.histo" snap.Obs.Metrics.histograms in
      Alcotest.(check int) "histogram count merged" n
        histo.Obs.Metrics.h_count;
      Alcotest.(check int) "bucket counts sum to count" n
        (List.fold_left (fun a (_, c) -> a + c) 0 histo.Obs.Metrics.h_buckets);
      Alcotest.(check (float 0.0)) "min" 1.0 histo.Obs.Metrics.h_min;
      Alcotest.(check (float 0.0)) "max" 128.0 histo.Obs.Metrics.h_max)

let test_metrics_disabled_and_reset () =
  with_clean_obs (fun () ->
      let c = Obs.Metrics.counter "test.toggle.counter" in
      Obs.Metrics.incr c;
      Obs.Metrics.set_enabled false;
      Obs.Metrics.incr c;
      Obs.Metrics.set_enabled true;
      let snap = Obs.Metrics.snapshot () in
      Alcotest.(check int) "disabled bump dropped" 1
        (List.assoc "test.toggle.counter" snap.Obs.Metrics.counters);
      Obs.Metrics.reset ();
      let snap = Obs.Metrics.snapshot () in
      Alcotest.(check int) "reset zeroes" 0
        (List.assoc "test.toggle.counter" snap.Obs.Metrics.counters))

let test_metrics_json_renders () =
  with_clean_obs (fun () ->
      let h = Obs.Metrics.histogram "test.render.histo" in
      Obs.Metrics.observe h Float.nan;
      Obs.Metrics.observe h 3.0;
      let json = Obs.Metrics.render_json (Obs.Metrics.snapshot ()) in
      Alcotest.(check bool) "object shape" true
        (json.[0] = '{' && String.contains json ':');
      (* the nan sample lands in bucket 0 and must not leak into the sum *)
      let histo =
        List.assoc "test.render.histo"
          (Obs.Metrics.snapshot ()).Obs.Metrics.histograms
      in
      Alcotest.(check int) "both samples counted" 2 histo.Obs.Metrics.h_count;
      Alcotest.(check (float 0.0)) "nan clamped out of sum" 3.0
        histo.Obs.Metrics.h_sum)

let fixture_app ?(seed = 11) () =
  let rng = Appgen.Rng.create (seed * 31) in
  let plants =
    List.init 6 (fun _ -> Appgen.Corpus.random_plant rng ~insecure_p:0.5)
  in
  G.generate
    { G.default_config with
      G.seed;
      name = Printf.sprintf "com.obs.app%d" seed;
      filler_classes = 30;
      plants }

(* The headline determinism guarantee: the merged integer counters (and
   histogram totals) of four runs of one session are identical at jobs 1
   and 4, one after another or from four domains at once, as a daemon's
   workers run them.  Timing-derived bucket placement may differ; counts
   may not. *)
let test_metrics_determinism_across_jobs () =
  with_clean_obs (fun () ->
      let app = fixture_app () in
      let snapshot_after runs =
        Obs.Metrics.reset ();
        ignore (runs app : Sessions.runs);
        Obs.Metrics.snapshot ()
      in
      let s1 = snapshot_after (Sessions.sequential ~runs:4) in
      let s4 = snapshot_after (Sessions.concurrent ~jobs:4) in
      List.iter2
        (fun (name1, v1) (name4, v4) ->
           Alcotest.(check string) "same counter set" name1 name4;
           Alcotest.(check int) ("counter " ^ name1) v1 v4)
        s1.Obs.Metrics.counters s4.Obs.Metrics.counters;
      List.iter2
        (fun (name1, h1) (name4, h4) ->
           Alcotest.(check string) "same histogram set" name1 name4;
           Alcotest.(check int)
             ("histogram count " ^ name1)
             h1.Obs.Metrics.h_count h4.Obs.Metrics.h_count)
        s1.Obs.Metrics.histograms s4.Obs.Metrics.histograms)

(* ------------------------------------------------------------------ *)
(* Chrome export: pairing, monotonicity, round-trip                     *)

let mk_span ?(pid = 0) ?(tid = 0) ?(attrs = []) ~name t0 t1 =
  { Obs.Span.cat = "t"; name; pid; tid; t0_us = t0; t1_us = t1; attrs }

let test_chrome_invariants () =
  let spans =
    [ mk_span ~name:"a" 0.0 100.0;
      mk_span ~name:"b" 10.0 40.0;
      mk_span ~name:"c" 50.0 90.0;
      mk_span ~tid:1 ~name:"d" 5.0 95.0;
      mk_span ~pid:1 ~tid:1 ~name:"e" 7.0 7.0 (* zero-length *) ]
  in
  let events = Obs.Chrome.events_of_spans spans in
  Alcotest.(check int) "two events per span" (2 * List.length spans)
    (List.length events);
  (match Obs.Chrome.validate events with
   | Ok () -> ()
   | Error e -> Alcotest.fail e);
  let ts = List.map (fun e -> e.Obs.Chrome.e_ts) events in
  Alcotest.(check bool) "strictly increasing ts" true
    (List.for_all2 ( < ) (List.filteri (fun i _ -> i < List.length ts - 1) ts)
       (List.tl ts))

let test_chrome_validate_rejects () =
  let bad =
    [ { Obs.Chrome.e_ph = 'E'; e_ts = 1; e_pid = 0; e_tid = 0; e_cat = "t";
        e_name = "orphan"; e_args = [] } ]
  in
  (match Obs.Chrome.validate bad with
   | Ok () -> Alcotest.fail "orphan E accepted"
   | Error _ -> ());
  let unclosed =
    [ { Obs.Chrome.e_ph = 'B'; e_ts = 1; e_pid = 0; e_tid = 0; e_cat = "t";
        e_name = "open"; e_args = [] } ]
  in
  match Obs.Chrome.validate unclosed with
  | Ok () -> Alcotest.fail "unclosed B accepted"
  | Error _ -> ()

let test_chrome_round_trip () =
  let spans =
    [ mk_span ~name:"outer" ~attrs:[ ("q", Obs.Span.Str "x\"y") ] 0.0 50.0;
      mk_span ~name:"inner" 5.0 25.0;
      mk_span ~pid:2 ~tid:3 ~name:"other" 1.0 2.0 ]
  in
  let events = Obs.Chrome.events_of_spans spans in
  Alcotest.(check bool) "render/parse round-trips" true
    (Obs.Chrome.round_trips events);
  (* and the rendered file parses back after going through a real file *)
  let path = Filename.temp_file "obs_chrome" ".trace.json" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () ->
      let n = Obs.Chrome.write ~pid_names:[ (0, "app") ] path spans in
      Alcotest.(check int) "write returns event count" (List.length events) n;
      let ic = open_in path in
      let len = in_channel_length ic in
      let content = really_input_string ic len in
      close_in ic;
      match Obs.Chrome.parse content with
      | Ok parsed ->
        Alcotest.(check int) "parsed event count" (List.length events)
          (List.length parsed)
      | Error e -> Alcotest.fail e)

(* Property: any *properly nested* span family per (pid, tid) — which is
   exactly what the recorder produces, since [with_span] scopes nest on one
   domain — exports to a stream where every B has its stack-ordered E and
   ts is strictly monotonic, in any recording order.  Random laminar
   families are built by recursive interval subdivision. *)
let gen_spans st =
  let names = [| "a"; "b"; "c" |] in
  let spans = ref [] in
  let rec build pid tid lo hi depth =
    if depth > 0 && hi -. lo >= 2.0 then begin
      let n = Random.State.int st 3 in
      let width = (hi -. lo) /. float_of_int (max 1 n) in
      for i = 0 to n - 1 do
        let a = lo +. (width *. float_of_int i) in
        let t0 = a +. Random.State.float st (width /. 4.0) in
        let t1 = a +. width -. Random.State.float st (width /. 4.0) in
        if t1 >= t0 then begin
          spans :=
            mk_span ~pid ~tid
              ~name:names.(Random.State.int st (Array.length names))
              t0 t1
            :: !spans;
          build pid tid t0 t1 (depth - 1)
        end
      done
    end
  in
  List.iter
    (fun (pid, tid) -> build pid tid 0.0 1000.0 (1 + Random.State.int st 3))
    [ (0, 0); (0, 1); (1, 0) ];
  (* recording order is arbitrary: shuffle before export *)
  let arr = Array.of_list !spans in
  for i = Array.length arr - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done;
  Array.to_list arr

let prop_chrome_always_valid =
  QCheck.Test.make ~name:"chrome export valid for nested span families"
    ~count:200
    (QCheck.make gen_spans)
    (fun spans ->
       match Obs.Chrome.validate (Obs.Chrome.events_of_spans spans) with
       | Ok () -> true
       | Error _ -> false)

(* ------------------------------------------------------------------ *)
(* Summary: self time excludes direct children                          *)

let test_summary_self_time () =
  let spans =
    [ mk_span ~name:"parent" 0.0 100.0;
      mk_span ~name:"child" 10.0 40.0;
      mk_span ~name:"child" 50.0 70.0;
      mk_span ~name:"grandchild" 12.0 20.0 ]
  in
  let rows = Obs.Summary.compute spans in
  let row name = List.find (fun r -> r.Obs.Summary.r_name = name) rows in
  Alcotest.(check (float 1e-6)) "parent self = 100 - (30 + 20)" 50.0
    (row "parent").Obs.Summary.r_self_us;
  Alcotest.(check (float 1e-6)) "children self exclude grandchild" 42.0
    (row "child").Obs.Summary.r_self_us;
  Alcotest.(check int) "child count" 2 (row "child").Obs.Summary.r_count;
  Alcotest.(check (float 1e-6)) "child max" 30.0
    (row "child").Obs.Summary.r_max_us;
  Alcotest.(check (float 1e-6)) "grandchild self" 8.0
    (row "grandchild").Obs.Summary.r_self_us;
  Alcotest.(check bool) "render mentions every phase" true
    (let s = Obs.Summary.render rows in
     List.for_all
       (fun n ->
          let rec mem i =
            i + String.length n <= String.length s
            && (String.sub s i (String.length n) = n || mem (i + 1))
          in
          mem 0)
       [ "t/parent"; "t/child"; "t/grandchild" ])

let cases =
  [ Alcotest.test_case "jsonf clamps non-finite floats" `Quick test_jsonf_clamp;
    Alcotest.test_case "jsonf escapes strings" `Quick test_jsonf_escape;
    Alcotest.test_case "trace event json survives non-finite latency" `Quick
      test_trace_event_nonfinite;
    Alcotest.test_case "with_file_out closes fd on exception" `Quick
      test_io_no_fd_leak;
    Alcotest.test_case "disabled spans record nothing" `Quick
      test_span_disabled_records_nothing;
    Alcotest.test_case "span nesting and attrs" `Quick
      test_span_nesting_and_attrs;
    Alcotest.test_case "span emitted when thunk raises" `Quick
      test_span_emitted_on_exception;
    Alcotest.test_case "pid is dynamically scoped" `Quick test_span_pid_scoping;
    Alcotest.test_case "recorder bounds shards and keeps the newest" `Quick
      test_recorder_keeps_newest;
    Alcotest.test_case "recorder merges per-domain shards" `Quick
      test_recorder_shards_across_pool;
    Alcotest.test_case "metrics merge across pool shards" `Quick
      test_metrics_shard_merge;
    Alcotest.test_case "metrics toggle and reset" `Quick
      test_metrics_disabled_and_reset;
    Alcotest.test_case "metrics json render and nan clamp" `Quick
      test_metrics_json_renders;
    Alcotest.test_case "metrics identical at jobs 1 and 4" `Quick
      test_metrics_determinism_across_jobs;
    Alcotest.test_case "chrome pairing and monotonic ts" `Quick
      test_chrome_invariants;
    Alcotest.test_case "chrome validate rejects broken streams" `Quick
      test_chrome_validate_rejects;
    Alcotest.test_case "chrome render/parse round-trip" `Quick
      test_chrome_round_trip;
    qcheck prop_chrome_always_valid;
    Alcotest.test_case "summary self-time profile" `Quick
      test_summary_self_time ]

let suites = [ ("obs.telemetry", cases) ]
