(* Tests for the persistent preprocessing snapshot (lib/store): corrupted
   files must come back as typed errors (never a crash or a wrong engine),
   save -> load -> save must be byte-identical, and an analysis run on a
   loaded engine must produce the same report as a cold one. *)

module G = Appgen.Generator
module E = Bytesearch.Engine
module Driver = Backdroid.Driver

let fixture_app ?(seed = 41) ?(filler = 8) ?build_dex () =
  let rng = Appgen.Rng.create (seed * 131) in
  let plants =
    List.init 4 (fun _ -> Appgen.Corpus.random_plant rng ~insecure_p:0.5)
  in
  G.generate ?build_dex
    { G.default_config with
      G.seed;
      name = Printf.sprintf "com.test.store%d" seed;
      filler_classes = filler;
      plants }

let with_snapshot f =
  let app = fixture_app () in
  let path = Filename.temp_file "backdroid_store" ".bdix" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  let engine = E.create app.G.dex in
  let bytes = Store.Snapshot.save ~path engine in
  Alcotest.(check bool) "snapshot is non-trivial" true (bytes > 1024);
  f ~app ~path

let read_all path =
  let ic = In_channel.open_bin path in
  Fun.protect ~finally:(fun () -> In_channel.close ic) (fun () ->
      In_channel.input_all ic)

let write_all path s =
  let oc = Out_channel.open_bin path in
  Fun.protect ~finally:(fun () -> Out_channel.close oc) (fun () ->
      Out_channel.output_string oc s)

(* Patch a copy of the file and re-seal the checksum, so structural checks
   are exercised rather than masked by [Bad_checksum]. *)
let reseal b =
  let total = Bytes.length b in
  Bytes.set_int64_le b Store.Codec.checksum_offset
    (Store.Codec.fnv1a64 ~pos:Store.Codec.header_len
       ~len:(total - Store.Codec.header_len) b);
  b

let error_t =
  Alcotest.testable
    (fun fmt e ->
       Format.pp_print_string fmt (Store.Codec.error_to_string e))
    (fun a b ->
       match (a, b) with
       | Store.Codec.Corrupt _, Store.Codec.Corrupt _ -> true
       | a, b -> a = b)

let check_load_error ~app ~path name expect =
  match Store.Snapshot.load ~path app.G.program with
  | Ok _ -> Alcotest.failf "%s: load unexpectedly succeeded" name
  | Error e -> Alcotest.check error_t name expect e

let test_rejects_corruption () =
  with_snapshot @@ fun ~app ~path ->
  let original = read_all path in
  let mutate f =
    let b = Bytes.of_string original in
    f b;
    write_all path (Bytes.to_string b)
  in
  (* a short header *)
  write_all path (String.sub original 0 10);
  check_load_error ~app ~path "10-byte file" Store.Codec.Truncated;
  (* cut mid-payload: the recorded length no longer matches *)
  write_all path (String.sub original 0 (String.length original / 2));
  check_load_error ~app ~path "half a file" Store.Codec.Truncated;
  (* wrong magic *)
  mutate (fun b -> Bytes.set b 0 'X');
  check_load_error ~app ~path "bad magic" Store.Codec.Bad_magic;
  (* future format version, checksum resealed so only the version differs *)
  mutate (fun b ->
      Bytes.set_int32_le b 8 99l;
      ignore (reseal b));
  check_load_error ~app ~path "future version" (Store.Codec.Bad_version 99);
  (* one flipped payload byte fails the checksum *)
  mutate (fun b ->
      let i = String.length original - 5 in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x40)));
  check_load_error ~app ~path "flipped payload byte" Store.Codec.Bad_checksum;
  (* a flipped byte inside the stored checksum itself *)
  mutate (fun b ->
      let i = Store.Codec.checksum_offset + 2 in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x01)));
  check_load_error ~app ~path "flipped checksum byte" Store.Codec.Bad_checksum;
  (* grow a count in the meta section: every downstream length check must
     fire as Corrupt, not a crash.  The meta section is written first, so
     directory entry 0 points at it; its payload is four 8-byte counts. *)
  let meta_off =
    let b = Bytes.of_string original in
    let id = Int64.to_int (Bytes.get_int64_le b Store.Codec.header_len) in
    Alcotest.(check int) "directory entry 0 is the meta section" 1 id;
    Int64.to_int (Bytes.get_int64_le b (Store.Codec.header_len + 8))
  in
  List.iteri
    (fun field name ->
       mutate (fun b ->
           let o = meta_off + (8 * field) in
           Bytes.set_int64_le b o
             (Int64.add (Bytes.get_int64_le b o) 7L);
           ignore (reseal b));
       check_load_error ~app ~path
         (Printf.sprintf "inflated %s count" name)
         (Store.Codec.Corrupt ""))
    [ "line"; "slot"; "owner"; "symbol" ];
  (* restore and prove the fixture itself still loads *)
  write_all path original;
  match Store.Snapshot.load ~path app.G.program with
  | Ok e ->
    Alcotest.(check string) "restored file loads" "snapshot" (E.index_mode e)
  | Error e ->
    Alcotest.failf "restored file: %s" (Store.Codec.error_to_string e)

let test_roundtrip_identical () =
  with_snapshot @@ fun ~app ~path ->
  let engine =
    match Store.Snapshot.load ~path app.G.program with
    | Ok e -> e
    | Error e -> Alcotest.failf "load: %s" (Store.Codec.error_to_string e)
  in
  let path2 = Filename.temp_file "backdroid_store2" ".bdix" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path2 with Sys_error _ -> ())
  @@ fun () ->
  ignore (Store.Snapshot.save ~path:path2 engine);
  Alcotest.(check bool) "save -> load -> save is byte-identical" true
    (read_all path = read_all path2)

let report_fingerprint (r : Driver.sink_report) =
  Printf.sprintf "%s@%s:%d reachable=%b fact=%s verdict=%s"
    r.sink.Framework.Sinks.name
    (Ir.Jsig.meth_to_string r.meth)
    r.site r.reachable
    (Backdroid.Facts.to_string r.fact)
    (Backdroid.Detectors.verdict_to_string r.verdict)

let test_warm_analyze_equals_cold () =
  with_snapshot @@ fun ~app ~path ->
  let cold = Driver.analyze ~dex:app.G.dex ~manifest:app.G.manifest () in
  let engine =
    match Store.Snapshot.load ~path app.G.program with
    | Ok e -> e
    | Error e -> Alcotest.failf "load: %s" (Store.Codec.error_to_string e)
  in
  let warm = Driver.analyze ~engine ~dex:app.G.dex ~manifest:app.G.manifest () in
  Alcotest.(check bool) "fixture has sink calls" true
    (cold.Driver.stats.Driver.sink_calls > 0);
  Alcotest.(check (list string)) "warm report == cold report"
    (List.map report_fingerprint cold.Driver.reports)
    (List.map report_fingerprint warm.Driver.reports)

(* -- Format version, coded postings, prefault, symbol remap ----------- *)

(* A v1 file (the retired flat-postings layout) is refused with a typed
   error.  The version field, bytes 8-11, lies outside the checksummed
   range, so patching it alone needs no reseal. *)
let test_v1_refused () =
  with_snapshot @@ fun ~app ~path ->
  let b = Bytes.of_string (read_all path) in
  Bytes.set_int32_le b 8 1l;
  write_all path (Bytes.to_string b);
  check_load_error ~app ~path "v1 file" (Store.Codec.Bad_version 1)

(* Garbage inside a coded-postings section must come back as [Corrupt]
   (the per-run validation), never a crash or a wrong engine. *)
let test_corrupt_coded_run () =
  with_snapshot @@ fun ~app ~path ->
  let original = read_all path in
  let b = Bytes.of_string original in
  let n = Int32.to_int (Bytes.get_int32_le b 12) in
  (* find the directory entry for category 0's coded runs (id 22) *)
  let sec_off = ref (-1) and sec_len = ref 0 in
  for i = 0 to n - 1 do
    let e = Store.Codec.header_len + (i * 24) in
    if Int64.to_int (Bytes.get_int64_le b e) = 22 then begin
      sec_off := Int64.to_int (Bytes.get_int64_le b (e + 8));
      sec_len := Int64.to_int (Bytes.get_int64_le b (e + 16))
    end
  done;
  Alcotest.(check bool) "fixture has coded postings bytes" true
    (!sec_off > 0 && !sec_len >= 8);
  (* 0xff... decodes as an overlong/overflowing varint count *)
  for i = 0 to 7 do
    Bytes.set b (!sec_off + i) '\xff'
  done;
  write_all path (Bytes.to_string (reseal b));
  check_load_error ~app ~path "corrupt coded run" (Store.Codec.Corrupt "")

let test_prefault_load () =
  with_snapshot @@ fun ~app ~path ->
  let load ?prefault () =
    match Store.Snapshot.load ?prefault ~path app.G.program with
    | Ok e -> e
    | Error e -> Alcotest.failf "load: %s" (Store.Codec.error_to_string e)
  in
  let cold = load () and hot = load ~prefault:true () in
  let q = Bytesearch.Query.raw "invoke-static" in
  let fp e =
    List.map (fun (h : E.hit) -> Printf.sprintf "%d:%s" h.line_no h.text)
      (E.run e q)
  in
  Alcotest.(check bool) "prefaulted engine finds hits" true (fp hot <> []);
  Alcotest.(check (list string)) "prefault changes nothing but timing"
    (fp cold) (fp hot)

(* A snapshot written by another process carries that process's symbol
   ids.  Loaded here, after this process has interned another app's
   symbols, it takes the remap path — keys re-sorted to live ids, coded
   runs moved as byte ranges, the arena's sym column rewritten — and must
   still answer exactly like a cold engine.  The writer is the built CLI,
   spawned rather than forked: [Unix.fork] is refused once a domain has
   run. *)
let cli = Filename.concat Filename.parent_dir_name "bin/backdroid_cli.exe"

let remapped_loads () =
  Option.value ~default:0
    (List.assoc_opt "store.load.remapped"
       (Obs.Metrics.snapshot ()).Obs.Metrics.counters)

let test_foreign_snapshot_remaps () =
  let path = Filename.temp_file "backdroid_foreign" ".bdix" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid =
    Fun.protect ~finally:(fun () -> Unix.close devnull) (fun () ->
        Unix.create_process cli
          [| cli; "analyze"; "--seed"; "7"; "--size-mb"; "2"; "--plant";
             "callback:cipher"; "--plant"; "direct:ssl"; "--insecure";
             "--jobs"; "1"; "--save-index"; path |]
          Unix.stdin devnull devnull)
  in
  (match Unix.waitpid [] pid with
   | _, Unix.WEXITED 0 -> ()
   | _ -> Alcotest.failf "%s analyze --save-index failed" cli);
  ignore (fixture_app ~seed:5 ());
  let spec =
    { Serve.Appspec.default with
      Serve.Appspec.seed = 7; size_mb = 2.0; insecure = true;
      plants = [ ("callback", "cipher"); ("direct", "ssl") ] }
  in
  let app =
    match Serve.Appspec.generate spec with
    | Ok app -> app
    | Error m -> Alcotest.fail m
  in
  let before = remapped_loads () in
  let warm =
    match Store.Snapshot.load ~path app.G.program with
    | Ok e -> e
    | Error e -> Alcotest.failf "load: %s" (Store.Codec.error_to_string e)
  in
  Alcotest.(check bool) "load took the remap path" true
    (remapped_loads () > before);
  let cold = E.create app.G.dex in
  let sym_column e =
    Ivec.to_array (E.dexfile e).Dex.Dexfile.arena.Dex.Arena.sym
  in
  Alcotest.(check (array int)) "arena sym column rewritten to live ids"
    (sym_column cold) (sym_column warm);
  Array.iteri
    (fun c p ->
       Test_parallel.check_packed_equal
         (Printf.sprintf "remapped category %d" c)
         p (E.export_packed warm).(c))
    (E.export_packed cold);
  List.iter
    (fun q ->
       Alcotest.(check (list string))
         ("remapped hits for " ^ Bytesearch.Query.to_command q)
         (List.map Test_parallel.hit_fingerprint (E.run_uncached cold q))
         (List.map Test_parallel.hit_fingerprint (E.run_uncached warm q)))
    (Test_parallel.exhaustive_queries app.G.program);
  let lines engine =
    Serve.Render.report_lines
      (Driver.analyze ~engine ~dex:app.G.dex ~manifest:app.G.manifest ())
  in
  Alcotest.(check (list string)) "remapped report lines == cold"
    (lines cold) (lines warm)

let test_default_path () =
  let p = Store.Snapshot.default_path ~dir:"/tmp" ~app_id:"com.a/b c" in
  Alcotest.(check string) "sanitized and versioned"
    (Printf.sprintf "/tmp/com.a_b_c.v%d.bdix" Store.Codec.format_version)
    p

(* -- Delta: incremental re-analysis across app versions --------------- *)

(* The delta acceptance property: patching v1's index into v2 — whether
   from the snapshot file or from the still-resident engine — must answer
   analysis byte-identically to a from-scratch build of v2. *)
let test_delta_equals_cold () =
  with_snapshot @@ fun ~app ~path ->
  (* v1's analysis, persisted alongside the index like the corpus does *)
  let r1 = Driver.analyze ~dex:app.G.dex ~manifest:app.G.manifest () in
  let results_s =
    Backdroid.Resultcache.to_strings (Driver.export_results ~dex:app.G.dex r1)
  in
  let e1 =
    match Store.Snapshot.load ~path app.G.program with
    | Ok e -> e
    | Error e -> Alcotest.failf "load: %s" (Store.Codec.error_to_string e)
  in
  ignore (Store.Snapshot.save ~results:results_s ~path e1);
  let v2 = G.mutate ~pct:0.25 app in
  let cold = Driver.analyze ~dex:v2.G.dex ~manifest:v2.G.manifest () in
  let cold_fp = List.map report_fingerprint cold.Driver.reports in
  Alcotest.(check bool) "fixture has sink calls" true
    (cold.Driver.stats.Driver.sink_calls > 0);
  (* file-based: load the v1 snapshot and patch it *)
  let e_file, rep =
    match Store.Snapshot.delta ~path v2.G.program with
    | Ok x -> x
    | Error e -> Alcotest.failf "delta: %s" (Store.Codec.error_to_string e)
  in
  Alcotest.(check string) "delta engine mode" "delta" (E.index_mode e_file);
  Alcotest.(check bool) "mutation re-rendered some classes" true
    (rep.Store.Snapshot.d_changed + rep.Store.Snapshot.d_added > 0);
  Alcotest.(check bool) "unchanged classes were spliced" true
    (rep.Store.Snapshot.d_unchanged > 0);
  let warm =
    Driver.analyze ~engine:e_file ~dex:(E.dexfile e_file)
      ~manifest:v2.G.manifest ()
  in
  Alcotest.(check (list string)) "file delta report == cold report" cold_fp
    (List.map report_fingerprint warm.Driver.reports);
  (* resident: patch the live v1 engine and replay v1's persisted verdicts *)
  let e_res, _ =
    match Store.Snapshot.delta_of_engine e1 v2.G.program with
    | Ok x -> x
    | Error e ->
      Alcotest.failf "delta_of_engine: %s" (Store.Codec.error_to_string e)
  in
  let results =
    match
      Backdroid.Resultcache.of_strings (Store.Snapshot.load_results ~path
                                        |> Result.get_ok)
    with
    | Ok rc -> rc
    | Error m -> Alcotest.failf "results round-trip: %s" m
  in
  let warm2 =
    Driver.analyze ~results ~engine:e_res ~dex:(E.dexfile e_res)
      ~manifest:v2.G.manifest ()
  in
  Alcotest.(check (list string)) "resident delta + replay == cold report"
    cold_fp
    (List.map report_fingerprint warm2.Driver.reports);
  Alcotest.(check bool) "sinks in unchanged classes were replayed" true
    (warm2.Driver.stats.Driver.replayed_sinks > 0);
  (* the old engine is untouched and still answers for v1 *)
  let still =
    Driver.analyze ~engine:e1 ~dex:app.G.dex ~manifest:app.G.manifest ()
  in
  Alcotest.(check (list string)) "old engine still answers for v1"
    (List.map report_fingerprint r1.Driver.reports)
    (List.map report_fingerprint still.Driver.reports)

(* A delta-built engine is a first-class engine: saving it produces a
   snapshot that loads and round-trips byte-identically. *)
let test_delta_engine_roundtrip () =
  with_snapshot @@ fun ~app ~path ->
  let v2 = G.mutate ~pct:0.25 app in
  let engine =
    match Store.Snapshot.delta ~path v2.G.program with
    | Ok (e, _) -> e
    | Error e -> Alcotest.failf "delta: %s" (Store.Codec.error_to_string e)
  in
  let path2 = Filename.temp_file "backdroid_delta2" ".bdix" in
  let path3 = Filename.temp_file "backdroid_delta3" ".bdix" in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun p -> try Sys.remove p with Sys_error _ -> ())
        [ path2; path3 ])
  @@ fun () ->
  ignore (Store.Snapshot.save ~path:path2 engine);
  let loaded =
    match Store.Snapshot.load ~path:path2 v2.G.program with
    | Ok e -> e
    | Error e ->
      Alcotest.failf "load of delta save: %s" (Store.Codec.error_to_string e)
  in
  ignore (Store.Snapshot.save ~path:path3 loaded);
  Alcotest.(check bool) "delta save -> load -> save is byte-identical" true
    (read_all path2 = read_all path3);
  let warm =
    Driver.analyze ~engine:loaded ~dex:(E.dexfile loaded)
      ~manifest:v2.G.manifest ()
  in
  let cold = Driver.analyze ~dex:v2.G.dex ~manifest:v2.G.manifest () in
  Alcotest.(check (list string)) "reloaded delta engine == cold"
    (List.map report_fingerprint cold.Driver.reports)
    (List.map report_fingerprint warm.Driver.reports)

(* An engine with no class map (pre-delta snapshot, or a cold engine built
   before classmaps existed) cannot be delta-patched: typed error, so
   callers fall back to a cold build. *)
let test_delta_requires_classmap () =
  let app = fixture_app () in
  let dex = app.G.dex in
  let stripped =
    Dex.Dexfile.of_parts ?texts:dex.Dex.Dexfile.texts
      ~classmap:Dex.Classmap.empty dex.Dex.Dexfile.lines dex.Dex.Dexfile.arena
      dex.Dex.Dexfile.program
  in
  let engine = E.create stripped in
  match Store.Snapshot.delta_of_engine engine app.G.program with
  | Ok _ -> Alcotest.fail "delta on a classmap-less engine succeeded"
  | Error (Store.Codec.Corrupt _) -> ()
  | Error e ->
    Alcotest.failf "expected Corrupt, got %s" (Store.Codec.error_to_string e)

(* Property: over random (seed, pct) — including pct=0 (pure reuse) and
   pct=1 (everything re-rendered) — incremental always equals from-scratch. *)
(* The delta re-derives the index exactly: a delta engine's arena and all
   seven postings tables equal a cold build's, byte for byte.  From an old
   build in partition order the old->new slot map is not monotone, so the
   carried runs go through the re-sort path; with nothing changed, every
   class moves and none is re-rendered; with all but one class removed,
   old runs are longer than the new arena. *)
let test_delta_postings_equal_cold () =
  let app = fixture_app ~filler:20 () in
  let names =
    Ir.Program.fold_classes app.G.program
      (fun (c : Ir.Jclass.t) acc ->
         if c.Ir.Jclass.is_system then acc else c.Ir.Jclass.name :: acc)
      []
    |> List.sort String.compare
  in
  let front, back = List.partition (fun n -> String.length n mod 2 = 0) names in
  let partitioned =
    Dex.Dexfile.of_partitions app.G.program [ List.rev back; front ]
  in
  (* an update that keeps one app class: old runs outgrow the new arena *)
  let shrunk =
    Ir.Program.of_classes
      (Ir.Program.fold_classes app.G.program
         (fun (c : Ir.Jclass.t) acc ->
            if c.Ir.Jclass.is_system || c.Ir.Jclass.name = List.hd names then
              c :: acc
            else acc)
         [])
  in
  let changed = (G.mutate ~build_dex:false ~pct:0.25 app).G.program in
  List.iter
    (fun (what, old_dex, v2_program) ->
       let delta =
         match Store.Snapshot.delta_of_engine (E.create old_dex) v2_program
         with
         | Ok (e, _) -> e
         | Error e ->
           Alcotest.failf "%s: %s" what (Store.Codec.error_to_string e)
       in
       let cold = E.create (Dex.Dexfile.of_program v2_program) in
       let column f e = Ivec.to_array (f (E.dexfile e).Dex.Dexfile.arena) in
       List.iter
         (fun (name, f) ->
            Alcotest.(check (array int)) (what ^ ": arena " ^ name)
              (column f cold) (column f delta))
         [ ("line_idx", fun a -> a.Dex.Arena.line_idx);
           ("stmt_idx", fun a -> a.Dex.Arena.stmt_idx);
           ("cat", fun a -> a.Dex.Arena.cat);
           ("sym", fun a -> a.Dex.Arena.sym) ];
       Array.iteri
         (fun c p ->
            Test_parallel.check_packed_equal
              (Printf.sprintf "%s: category %d" what c)
              p (E.export_packed delta).(c))
         (E.export_packed cold))
    [ ("canonical order, 25% changed", app.G.dex, changed);
      ("partition order, 25% changed", partitioned, changed);
      ("partition order, unchanged", partitioned, app.G.program);
      ("canonical order, all but one class removed", app.G.dex, shrunk) ]

let delta_equiv =
  let gen = QCheck.Gen.(pair (int_range 1 60) (oneofl [ 0.0; 0.1; 0.4; 1.0 ])) in
  let print (s, p) = Printf.sprintf "seed=%d pct=%.2f" s p in
  QCheck.Test.make ~name:"delta == from-scratch analysis" ~count:8
    (QCheck.make ~print gen)
    (fun (seed, pct) ->
       let app = fixture_app ~seed ~filler:5 () in
       let path = Filename.temp_file "backdroid_deltaq" ".bdix" in
       Fun.protect
         ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
       @@ fun () ->
       let e1 = E.create app.G.dex in
       ignore (Store.Snapshot.save ~path e1);
       let v2 = G.mutate ~seed ~pct app in
       let cold = Driver.analyze ~dex:v2.G.dex ~manifest:v2.G.manifest () in
       let cold_fp = List.map report_fingerprint cold.Driver.reports in
       let check what engine =
         let r =
           Driver.analyze ~engine ~dex:(E.dexfile engine)
             ~manifest:v2.G.manifest ()
         in
         if List.map report_fingerprint r.Driver.reports <> cold_fp then
           QCheck.Test.fail_reportf "%s diverged from cold (%s)" what
             (print (seed, pct))
       in
       (match Store.Snapshot.delta ~path v2.G.program with
        | Ok (e, _) -> check "file delta" e
        | Error e ->
          QCheck.Test.fail_reportf "delta: %s"
            (Store.Codec.error_to_string e));
       (match Store.Snapshot.delta_of_engine e1 v2.G.program with
        | Ok (e, _) -> check "resident delta" e
        | Error e ->
          QCheck.Test.fail_reportf "delta_of_engine: %s"
            (Store.Codec.error_to_string e));
       true)

(* -- Postcodec wire-format properties --------------------------------- *)

module PC = Bytesearch.Postcodec

(* Strictly ascending slot lists spanning the codec's shapes: empty,
   singleton, dense runs (bitmap territory), sparse and max-gap runs
   (varint territory), and mixes that straddle the 8*nwords <= n
   threshold. *)
let gen_slots =
  QCheck.Gen.(
    let gaps_to_slots start gaps =
      List.rev
        (snd
           (List.fold_left
              (fun (prev, acc) g -> (prev + g, (prev + g) :: acc))
              (start, [ start ]) gaps))
    in
    oneof
      [ return [];
        map (fun s -> [ s ]) (int_bound 1_000_000);
        (* dense: consecutive or near-consecutive *)
        (let* start = int_bound 10_000 in
         let* n = int_range 1 400 in
         let* gaps = list_size (return (n - 1)) (int_range 1 2) in
         return (gaps_to_slots start gaps));
        (* sparse *)
        (let* start = int_bound 10_000 in
         let* n = int_range 1 100 in
         let* gaps = list_size (return (n - 1)) (int_range 1 5_000) in
         return (gaps_to_slots start gaps));
        (* max-gap: multi-byte varint deltas *)
        (let* start = int_bound 100 in
         let* n = int_range 1 10 in
         let* gaps = list_size (return (n - 1)) (int_range 1 (1 lsl 40)) in
         return (gaps_to_slots start gaps));
        (* mixed densities around the bitmap threshold *)
        (let* start = int_bound 1_000 in
         let* n = int_range 1 200 in
         let* gaps =
           list_size (return (n - 1)) (oneofl [ 1; 1; 1; 2; 63; 64; 65; 900 ])
         in
         return (gaps_to_slots start gaps)) ])

let print_slots l = String.concat "," (List.map string_of_int l)

let codec_roundtrip =
  QCheck.Test.make ~name:"postcodec encode/validate/iter round-trip"
    ~count:500
    (QCheck.make ~print:print_slots gen_slots)
    (fun slots ->
       let buf = Buffer.create 64 in
       PC.encode_array buf (Array.of_list slots);
       let bytes = Buffer.contents buf in
       let b = Bvec.of_string bytes in
       let max_slot = List.fold_left max 0 slots in
       (match
          PC.validate b ~pos:0 ~limit:(String.length bytes) ~max_slot
        with
        | Error m -> QCheck.Test.fail_reportf "validate rejected: %s" m
        | Ok (n, endp) ->
          if n <> List.length slots then
            QCheck.Test.fail_reportf "validated count %d <> %d" n
              (List.length slots);
          if endp <> String.length bytes then
            QCheck.Test.fail_reportf "validate stopped at %d of %d" endp
              (String.length bytes));
       if PC.count b ~pos:0 <> List.length slots then
         QCheck.Test.fail_report "O(1) count mismatch";
       let decoded = ref [] in
       PC.iter b ~pos:0 (fun s -> decoded := s :: !decoded);
       if List.rev !decoded <> slots then
         QCheck.Test.fail_reportf "decode mismatch: got %s"
           (print_slots (List.rev !decoded));
       (* determinism: re-encoding the decode is byte-identical *)
       let buf2 = Buffer.create 64 in
       PC.encode_array buf2 (Array.of_list (List.rev !decoded));
       if Buffer.contents buf2 <> bytes then
         QCheck.Test.fail_report "re-encode not byte-identical";
       (* a truncated run never validates *)
       (match slots with
        | [] -> ()
        | _ ->
          (match
             PC.validate b ~pos:0 ~limit:(String.length bytes - 1) ~max_slot
           with
           | Ok _ -> QCheck.Test.fail_report "truncated run validated"
           | Error _ -> ()));
       true)

(* A disassembled dexfile builds its class map on first use: a one-shot
   analysis never pays for it, and the save that first needs it builds it
   exactly once. *)
let test_classmap_on_first_use () =
  let app = fixture_app ~seed:47 ~build_dex:false () in
  let path = Filename.temp_file "backdroid_store" ".bdix" in
  let r = Obs.Span.Recorder.create () in
  Fun.protect
    ~finally:(fun () ->
        Obs.Span.set_sink None;
        try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  Obs.Span.Recorder.install r;
  let count name =
    List.length
      (List.filter
         (fun (s : Obs.Span.span) -> s.cat = "dex" && s.name = name)
         (Obs.Span.Recorder.spans r))
  in
  let dex = Dex.Dexfile.of_program app.G.program in
  let engine = E.create dex in
  ignore (Driver.analyze ~engine ~dex ~manifest:app.G.manifest ());
  Alcotest.(check int) "disassembly recorded" 1 (count "disasm");
  Alcotest.(check int) "no class map after analyze" 0 (count "classmap");
  ignore (Store.Snapshot.save ~path engine);
  Alcotest.(check int) "save builds it once" 1 (count "classmap");
  ignore (Store.Snapshot.save ~path engine);
  Alcotest.(check int) "and keeps it" 1 (count "classmap")

(* Two domains that ask for a fresh dexfile's class map at once get the
   same value, built once. *)
let test_classmap_once_across_domains () =
  let app = fixture_app ~seed:48 () in
  let dex = app.G.dex in
  let go = Atomic.make false in
  let ask () =
    while not (Atomic.get go) do Domain.cpu_relax () done;
    Dex.Dexfile.classmap dex
  in
  let d1 = Domain.spawn ask and d2 = Domain.spawn ask in
  Atomic.set go true;
  let a = Domain.join d1 and b = Domain.join d2 in
  Alcotest.(check bool) "same physical class map" true (a == b);
  Alcotest.(check bool) "the dexfile keeps it" true
    (Dex.Dexfile.classmap dex == a);
  Alcotest.(check int) "one entry per app class"
    (List.length (Ir.Program.app_classes app.G.program))
    (Dex.Classmap.length a)

let cases =
  [ Alcotest.test_case "corrupted snapshots fail as typed errors" `Quick
      test_rejects_corruption;
    Alcotest.test_case "save -> load -> save is byte-identical" `Quick
      test_roundtrip_identical;
    Alcotest.test_case "warm analyze == cold analyze" `Quick
      test_warm_analyze_equals_cold;
    Alcotest.test_case "v1 files are refused as Bad_version 1" `Quick
      test_v1_refused;
    Alcotest.test_case "corrupt v2 coded run is typed" `Quick
      test_corrupt_coded_run;
    Alcotest.test_case "prefault load is equivalent" `Quick
      test_prefault_load;
    Alcotest.test_case "foreign-process snapshot remaps to live ids" `Quick
      test_foreign_snapshot_remaps;
    Alcotest.test_case "default snapshot path" `Quick test_default_path;
    Alcotest.test_case "delta patch == from-scratch (file + resident)" `Quick
      test_delta_equals_cold;
    Alcotest.test_case "delta engine saves and round-trips" `Quick
      test_delta_engine_roundtrip;
    Alcotest.test_case "delta without a class map is a typed error" `Quick
      test_delta_requires_classmap;
    Alcotest.test_case "delta postings == cold postings, any old order"
      `Quick test_delta_postings_equal_cold;
    Alcotest.test_case "class map is built on first use" `Quick
      test_classmap_on_first_use;
    Alcotest.test_case "class map is built once across domains" `Quick
      test_classmap_once_across_domains;
    QCheck_alcotest.to_alcotest delta_equiv;
    QCheck_alcotest.to_alcotest codec_roundtrip ]

let suites = [ "store.snapshot", cases ]
