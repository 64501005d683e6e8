(* Tests for the evaluation harness: statistics helpers and the per-tool
   runners. *)

module G = Appgen.Generator
module Stats = Evalharness.Stats
module Runner = Evalharness.Runner

let test_median () =
  Alcotest.(check (float 1e-9)) "odd" 2.0 (Stats.median [ 3.0; 1.0; 2.0 ]);
  Alcotest.(check (float 1e-9)) "even" 2.5 (Stats.median [ 4.0; 1.0; 2.0; 3.0 ]);
  Alcotest.(check bool) "empty is nan" true (Float.is_nan (Stats.median []))

let test_mean () =
  Alcotest.(check (float 1e-9)) "mean" 2.0 (Stats.mean [ 1.0; 2.0; 3.0 ])

let test_histogram () =
  let xs = [ 0.5; 1.5; 2.5; 7.0; 20.0 ] in
  Alcotest.(check (list int)) "buckets" [ 1; 2; 1; 1 ]
    (Stats.histogram ~buckets:[ 1.0; 5.0; 10.0 ] xs)

let test_count_in () =
  Alcotest.(check int) "half-open" 2
    (Stats.count_in ~lo:1.0 ~hi:3.0 [ 0.5; 1.0; 2.9; 3.0 ])

let test_percentile () =
  let xs = List.init 101 (fun i -> float_of_int i) in
  Alcotest.(check (float 1e-9)) "p50" 50.0 (Stats.percentile 50.0 xs);
  Alcotest.(check (float 1e-9)) "p90" 90.0 (Stats.percentile 90.0 xs)

let tiny_app () =
  G.generate
    { G.default_config with
      G.seed = 3;
      name = "com.eval.tiny";
      filler_classes = 3;
      plants =
        [ { G.shape = Appgen.Shape.Direct; sink = Framework.Sinks.cipher;
            insecure = true } ] }

let test_run_backdroid () =
  let m, _ = Runner.run_backdroid (tiny_app ()) in
  Alcotest.(check bool) "no timeout" false m.Runner.timed_out;
  Alcotest.(check int) "one sink call" 1 m.Runner.sink_calls;
  Alcotest.(check int) "one insecure" 1 m.Runner.insecure;
  Alcotest.(check bool) "positive time" true (m.Runner.seconds >= 0.0)

let test_run_amandroid () =
  let m, _ = Runner.run_amandroid ~timeout_s:30.0 (tiny_app ()) in
  Alcotest.(check bool) "no timeout" false m.Runner.timed_out;
  Alcotest.(check int) "one insecure" 1 m.Runner.insecure

let test_run_amandroid_timeout_cap () =
  (* an enormous deep app with a tiny budget must report exactly the cap *)
  let app =
    G.generate
      { G.default_config with
        G.seed = 5;
        name = "com.eval.big";
        filler_classes = 200;
        filler_jump_locality = 2;
        filler_fanout_max = 3 }
  in
  let m, _ = Runner.run_amandroid ~timeout_s:0.05 app in
  if m.Runner.timed_out then
    Alcotest.(check (float 1e-9)) "capped at budget" 0.05 m.Runner.seconds
  else Alcotest.(check bool) "fast enough to finish" true (m.Runner.seconds < 0.5)

let test_run_flowdroid () =
  let m = Runner.run_flowdroid_cg ~timeout_s:30.0 (tiny_app ()) in
  Alcotest.(check bool) "no timeout" false m.Runner.timed_out;
  Alcotest.(check string) "tool name" "FlowDroid-CG" (Runner.tool_name m.Runner.tool)

let test_csv_roundtrip () =
  let m, _ = Runner.run_backdroid (tiny_app ()) in
  let row = Evalharness.Report.csv_row m in
  match Evalharness.Report.parse_row row with
  | Some m' ->
    Alcotest.(check string) "app" m.Runner.app m'.Runner.app;
    Alcotest.(check int) "sinks" m.Runner.sink_calls m'.Runner.sink_calls;
    Alcotest.(check bool) "tool" true (m.Runner.tool = m'.Runner.tool);
    Alcotest.(check bool) "incremental" m.Runner.incremental
      m'.Runner.incremental
  | None -> Alcotest.fail "row failed to parse"

(* Rows from before the trailing [incremental] column — and before the
   per-rule columns — must still parse, with the missing columns at their
   zero values; a row too short, or of the right width with a field that
   does not convert, is [None]. *)
let test_csv_old_rows () =
  let base =
    "com.old.app,BackDroid,0.123456,false,false,2,100,0.10,1,0.5000,0.0000,0,0,0,1"
  in
  let pr7 =
    base
    ^ String.concat ""
        (List.map (fun _ -> ",0") Rules.Builtin.family_names)
  in
  let check_row label row expect_incremental =
    match Evalharness.Report.parse_row row with
    | Some m ->
      Alcotest.(check int) (label ^ " sinks") 2 m.Runner.sink_calls;
      Alcotest.(check bool)
        (label ^ " incremental")
        expect_incremental m.Runner.incremental
    | None -> Alcotest.fail (label ^ " failed to parse")
  in
  check_row "pre-family row" base false;
  check_row "pre-incremental row" pr7 false;
  check_row "current row" (pr7 ^ ",true") true;
  List.iter
    (fun (label, row) ->
       Alcotest.(check bool) (label ^ " is None") true
         (Evalharness.Report.parse_row row = None))
    [ ("too short", "com.old.app,BackDroid,0.123456,false");
      ("non-numeric sinks",
       "com.old.app,BackDroid,0.123456,false,false,two,100,0.10,1,0.5000,\
        0.0000,0,0,0,1");
      ("non-numeric seconds",
       "com.old.app,BackDroid,fast,false,false,2,100,0.10,1,0.5000,0.0000,\
        0,0,0,1");
      ("non-boolean timed_out",
       "com.old.app,BackDroid,0.123456,maybe,false,2,100,0.10,1,0.5000,\
        0.0000,0,0,0,1");
      ("non-boolean incremental", pr7 ^ ",perhaps") ]

let test_csv_write () =
  let m, _ = Runner.run_backdroid (tiny_app ()) in
  let path = Filename.temp_file "bd" ".csv" in
  Evalharness.Report.write_csv path [ m; m ];
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  Sys.remove path;
  Alcotest.(check int) "header + 2 rows" 3 (List.length !lines)

(* A snapshot directory that cannot be written costs only the warm start:
   the corpus run warns on stderr and still measures its app. *)
let test_corpus_unwritable_snapshot_dir () =
  let missing = Filename.temp_file "backdroid_nodir" "" in
  Sys.remove missing;
  let module X = Evalharness.Experiments in
  let r =
    X.run_corpus
      { X.default_opts with
        X.scale = 0.15; count = 1; timeout_s = 0.3; flowdroid_timeout_s = 0.3;
        snapshot_dir = Some (Filename.concat missing "snapshots") }
  in
  (match r.X.backdroid with
   | [ m ] ->
     Alcotest.(check bool) "BackDroid measured the app" true
       ((not m.Runner.errored) && m.Runner.sink_calls > 0)
   | ms -> Alcotest.failf "%d BackDroid measurements" (List.length ms));
  Alcotest.(check (pair int int)) "and both baselines" (1, 1)
    (List.length r.X.amandroid, List.length r.X.flowdroid);
  Alcotest.(check bool) "no directory was made" false (Sys.file_exists missing)

(* Read what [f] writes to the process's stderr. *)
let capture_stderr f =
  let path = Filename.temp_file "backdroid_stderr" ".txt" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  flush stderr;
  let saved = Unix.dup Unix.stderr in
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0 in
  Unix.dup2 fd Unix.stderr;
  Unix.close fd;
  Fun.protect
    ~finally:(fun () ->
        flush stderr;
        Unix.dup2 saved Unix.stderr;
        Unix.close saved)
    f;
  In_channel.with_open_bin path In_channel.input_all

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* A snapshot directory whose parent exists is made: the first run saves
   one snapshot per app, after its analysis, and the second loads them
   and saves nothing.  A third, over the files stamped format v4, refuses
   each, rebuilds it cold and saves it in the current format. *)
let test_corpus_makes_snapshot_dir () =
  let parent = Filename.temp_file "backdroid_snapdir" "" in
  Sys.remove parent;
  Unix.mkdir parent 0o755;
  let dir = Filename.concat parent "snapshots" in
  Fun.protect
    ~finally:(fun () ->
        if Sys.file_exists dir then begin
          Array.iter (fun f -> Sys.remove (Filename.concat dir f))
            (Sys.readdir dir);
          Sys.rmdir dir
        end;
        Sys.rmdir parent)
  @@ fun () ->
  let module X = Evalharness.Experiments in
  let run () =
    capture_stderr (fun () ->
        ignore
          (X.run_corpus
             { X.default_opts with
               X.scale = 0.15; count = 2; timeout_s = 0.3;
               flowdroid_timeout_s = 0.3; snapshot_dir = Some dir }))
  in
  let first = run () in
  Alcotest.(check bool) "first run: no save failed" false
    (contains first "not saved");
  Alcotest.(check int) "one snapshot per app" 2
    (if Sys.file_exists dir then Array.length (Sys.readdir dir) else 0);
  Alcotest.(check bool) "second run: no save failed" false
    (contains (run ()) "not saved");
  let files = Array.map (Filename.concat dir) (Sys.readdir dir) in
  let version f =
    Int32.to_int (String.get_int32_le (Test_store.read_all f) 8)
  in
  Array.iter
    (fun f ->
       let b = Bytes.of_string (Test_store.read_all f) in
       Bytes.set_int32_le b 8 4l;
       Test_store.write_all f (Bytes.to_string b))
    files;
  let third = run () in
  Alcotest.(check bool) "third run: v4 refused and rebuilt cold" true
    (contains third "unsupported format version 4; rebuilding cold");
  Array.iter
    (fun f ->
       Alcotest.(check int) "saved in the current format"
         Store.Codec.format_version (version f))
    files

(* Each side of the search ablation starts its clock on its own fresh
   dexfile, with no text rendered and no postings built; inside the clock
   the scan engine renders the text once and builds no postings, and the
   indexed one builds postings and renders no text. *)
let test_ablation_clocks () =
  let module X = Evalharness.Experiments in
  Obs.Metrics.set_enabled true;
  List.iter
    (fun cfg ->
       let app = G.generate ~build_dex:false cfg in
       let idx = X.ablation_side ~indexed:true app
       and scan = X.ablation_side ~indexed:false app in
       let name = cfg.G.name in
       Alcotest.(check (pair int int)) (name ^ ": indexed clock starts clean")
         (0, 0) idx.X.ab_before;
       Alcotest.(check (pair int int)) (name ^ ": scan clock starts clean")
         (0, 0) scan.X.ab_before;
       Alcotest.(check bool) (name ^ ": the indexed side builds postings")
         true
         (fst idx.X.ab_during = 0 && snd idx.X.ab_during > 0);
       Alcotest.(check (pair int int)) (name ^ ": the scan side renders once")
         (1, 0) scan.X.ab_during;
       Alcotest.(check bool) (name ^ ": both query costs are measured") true
         (idx.X.ab_query_us > 0.0 && scan.X.ab_query_us > 0.0))
    (Appgen.Corpus.modern_144 ~scale:0.15 ~seed:42 ~count:2 ())

let cases =
  [ Alcotest.test_case "median" `Quick test_median;
    Alcotest.test_case "mean" `Quick test_mean;
    Alcotest.test_case "histogram" `Quick test_histogram;
    Alcotest.test_case "count_in" `Quick test_count_in;
    Alcotest.test_case "percentile" `Quick test_percentile;
    Alcotest.test_case "run backdroid" `Quick test_run_backdroid;
    Alcotest.test_case "run amandroid" `Quick test_run_amandroid;
    Alcotest.test_case "amandroid timeout cap" `Quick test_run_amandroid_timeout_cap;
    Alcotest.test_case "run flowdroid-cg" `Quick test_run_flowdroid;
    Alcotest.test_case "csv roundtrip" `Quick test_csv_roundtrip;
    Alcotest.test_case "csv old-row compat" `Quick test_csv_old_rows;
    Alcotest.test_case "csv write" `Quick test_csv_write;
    Alcotest.test_case "corpus run with an unwritable snapshot dir" `Quick
      test_corpus_unwritable_snapshot_dir;
    Alcotest.test_case "corpus run makes its snapshot dir" `Quick
      test_corpus_makes_snapshot_dir;
    Alcotest.test_case "ablation clocks start on a fresh dexfile" `Quick
      test_ablation_clocks ]

let suites = [ "eval.unit", cases ]
