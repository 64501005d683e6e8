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

let ok_or what = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" what (Store.Codec.error_to_string e)

(* A process-wide counter's merged value, 0 before its first bump. *)
let counter name =
  Option.value ~default:0
    (List.assoc_opt name (Obs.Metrics.snapshot ()).Obs.Metrics.counters)

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

(* Payload offset and byte length of section [id], from the directory. *)
let section_extent b id =
  let n = Int32.to_int (Bytes.get_int32_le b 12) in
  let rec find i =
    if i = n then Alcotest.failf "no section %d" id
    else
      let e = Store.Codec.header_len + (i * 24) in
      if Int64.to_int (Bytes.get_int64_le b e) = id then
        ( Int64.to_int (Bytes.get_int64_le b (e + 8)),
          Int64.to_int (Bytes.get_int64_le b (e + 16)) )
      else find (i + 1)
  in
  find 0

let section_offset b id = fst (section_extent b id)

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
  (* Slot 0 moved to the last line: every value is in range, but slots no
     longer follow line order and class 0's slots leave its lines.  Both
     the load and the file-based delta must refuse it. *)
  let n_lines =
    Int64.to_int (Bytes.get_int64_le (Bytes.of_string original) meta_off)
  in
  mutate (fun b ->
      Bytes.set_int64_le b (section_offset b 13) (Int64.of_int (n_lines - 1));
      ignore (reseal b));
  check_load_error ~app ~path "slot 0 on the last line" (Store.Codec.Corrupt "");
  (match Store.Snapshot.delta ~path app.G.program with
   | Ok _ -> Alcotest.fail "delta over out-of-order slots succeeded"
   | Error e ->
     Alcotest.check error_t "delta over out-of-order slots"
       (Store.Codec.Corrupt "") e);
  (* class 0 given no lines: its slots lie outside its line range *)
  mutate (fun b ->
      let ranges = section_offset b 43 in
      Bytes.set_int64_le b (ranges + 8) (Bytes.get_int64_le b ranges);
      ignore (reseal b));
  check_load_error ~app ~path "class 0 without its lines"
    (Store.Codec.Corrupt "");
  (* The class map's entries (4 words: line_lo, line_hi, slot_lo, slot_hi)
     must tile the lines and the slots exactly, in order: the text pass
     renders them one after another.  Each mutation below keeps every
     entry's slots inside its own lines. *)
  let n_classes = snd (section_extent (Bytes.of_string original) 43) / 32 in
  Alcotest.(check bool) "fixture has several classes" true (n_classes > 2);
  let entry_word b i w = section_offset b 43 + (32 * i) + (8 * w) in
  let bump i w d =
    mutate (fun b ->
        let o = entry_word b i w in
        Bytes.set_int64_le b o (Int64.add (Bytes.get_int64_le b o) d);
        ignore (reseal b))
  in
  (* class 1 starts a line after class 0 ends: the line between belongs
     to no class *)
  bump 1 0 1L;
  check_load_error ~app ~path "a gap between two classes' lines"
    (Store.Codec.Corrupt "");
  (* class 0's lines run one into class 1's *)
  bump 0 1 1L;
  check_load_error ~app ~path "two classes' lines overlap"
    (Store.Codec.Corrupt "");
  (* the last class ends a slot short of the slot count *)
  let last = n_classes - 1 in
  let slots_of_last =
    let b = Bytes.of_string original in
    Int64.to_int
      (Int64.sub
         (Bytes.get_int64_le b (entry_word b last 3))
         (Bytes.get_int64_le b (entry_word b last 2)))
  in
  Alcotest.(check bool) "the last class has slots" true (slots_of_last > 0);
  bump last 3 (-1L);
  check_load_error ~app ~path "the last class short of the slot count"
    (Store.Codec.Corrupt "");
  (* a file with lines and no class map: its sections renamed away *)
  mutate (fun b ->
      let n = Int32.to_int (Bytes.get_int32_le b 12) in
      for i = 0 to n - 1 do
        let e = Store.Codec.header_len + (i * 24) in
        let id = Int64.to_int (Bytes.get_int64_le b e) in
        if id >= 41 && id <= 44 then
          Bytes.set_int64_le b e (Int64.of_int (id + 100))
      done;
      ignore (reseal b));
  check_load_error ~app ~path "lines without a class map"
    (Store.Codec.Corrupt "");
  (* an owner signature whose ')' is gone: its offsets still check, and
     only the signature check can refuse it (parsing it used to raise
     [Not_found] out of the load) *)
  mutate (fun b ->
      let off, len = section_extent b 10 in
      let rp = Bytes.index_from b off ')' in
      Alcotest.(check bool) "the owner blob holds a ')'" true (rp < off + len);
      Bytes.set b rp 'X';
      ignore (reseal b));
  check_load_error ~app ~path "an owner signature without ')'"
    (Store.Codec.Corrupt "");
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

(* A save writes the symbols its index references and no others: a
   symbol interned between two saves of one engine, as a parallel
   analysis interns them in scheduling order, leaves the bytes as they
   were. *)
let test_save_ignores_later_symbols () =
  let app = fixture_app ~seed:53 () in
  let engine = E.create app.G.dex in
  let path = Filename.temp_file "backdroid_syms" ".bdix" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  ignore (Store.Snapshot.save ~path engine);
  let first = read_all path in
  ignore (Sym.intern (Printf.sprintf "Lunrelated/Later%d;" (Sym.interned ())));
  ignore (Store.Snapshot.save ~path engine);
  Alcotest.(check bool) "same bytes after an unrelated intern" true
    (first = read_all path)

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

(* A v1 file (the retired flat-postings layout) and a v2 file (which also
   stored the line texts) are refused with a typed error.  The version
   field, bytes 8-11, lies outside the checksummed range, so patching it
   alone needs no reseal. *)
let test_v1_refused () =
  with_snapshot @@ fun ~app ~path ->
  let original = read_all path in
  List.iter
    (fun v ->
       let b = Bytes.of_string original in
       Bytes.set_int32_le b 8 (Int32.of_int v);
       write_all path (Bytes.to_string b);
       check_load_error ~app ~path (Printf.sprintf "v%d file" v)
         (Store.Codec.Bad_version v))
    [ 1; 2 ]

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
    List.map
      (fun (h : E.hit) ->
         Printf.sprintf "%d:%s" h.line_no
           (Dex.Dexfile.line_text (E.dexfile e) h.line_no))
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

(* Run the CLI to completion and return its output lines. *)
let run_cli args =
  let out = Filename.temp_file "backdroid_cli" ".out" in
  Fun.protect ~finally:(fun () -> try Sys.remove out with Sys_error _ -> ())
  @@ fun () ->
  let fd = Unix.openfile out [ Unix.O_WRONLY; Unix.O_TRUNC ] 0 in
  let pid =
    Fun.protect ~finally:(fun () -> Unix.close fd) (fun () ->
        Unix.create_process cli (Array.of_list (cli :: args)) Unix.stdin fd fd)
  in
  (match Unix.waitpid [] pid with
   | _, Unix.WEXITED 0 -> ()
   | _ -> Alcotest.failf "%s %s failed" cli (String.concat " " args));
  String.split_on_char '\n' (read_all out)

let remapped_loads () = counter "store.load.remapped"

let test_foreign_snapshot_remaps () =
  let path = Filename.temp_file "backdroid_foreign" ".bdix" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  ignore
    (run_cli
       [ "analyze"; "--seed"; "7"; "--size-mb"; "2"; "--plant";
         "callback:cipher"; "--plant"; "direct:ssl"; "--insecure"; "--jobs";
         "1"; "--save-index"; path ]);
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
  let file = read_all path in
  let warm =
    match Store.Snapshot.load ~path app.G.program with
    | Ok e -> e
    | Error e -> Alcotest.failf "load: %s" (Store.Codec.error_to_string e)
  in
  Alcotest.(check bool) "load took the remap path" true
    (remapped_loads () > before);
  (* the remap rewrote the sym column in a private mapping of the file *)
  Alcotest.(check bool) "the file's bytes are unchanged" true
    (read_all path = file);
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

(* Every warm start is checked against the analysed app: [--load-index]
   of another app's snapshot, or of an older version's, patches it and
   prints what a cold run of that app prints, sink for sink. *)
let test_cli_load_index_checks_the_app () =
  let path = Filename.temp_file "backdroid_cli_warm" ".bdix" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  let analyze seed =
    [ "analyze"; "--seed"; seed; "--size-mb"; "2"; "--plant";
      "callback:cipher"; "--plant"; "direct:ssl"; "--insecure"; "--jobs"; "1" ]
  in
  ignore (run_cli (analyze "7" @ [ "--save-index"; path ]));
  let sink_lines = List.filter (String.starts_with ~prefix:"  [") in
  List.iter
    (fun (what, args) ->
       let cold = sink_lines (run_cli args) in
       let warm = run_cli (args @ [ "--load-index"; path ]) in
       Alcotest.(check bool) (what ^ ": the cold run reports sinks") true
         (cold <> []);
       Alcotest.(check bool) (what ^ ": index: delta-patched") true
         (List.exists (String.starts_with ~prefix:"index: delta-patched") warm);
       Alcotest.(check (list string)) (what ^ ": per-sink lines == cold") cold
         (sink_lines warm))
    [ ("another app", analyze "9");
      ("a changed version", analyze "7" @ [ "--mutate-pct"; "0.3" ]) ]

(* A warm start that replays persisted results saves them again: v2,
   delta-patched from v1's snapshot, replays every sink and its save
   carries their entries, so v3 from v2's snapshot replays too, and prints
   what a cold v3 run prints, sink for sink. *)
let test_cli_replayed_results_persist () =
  let v1 = Filename.temp_file "backdroid_cli_v1" ".bdix"
  and d1 = Filename.temp_file "backdroid_cli_d1" ".bdix" in
  Fun.protect
    ~finally:(fun () ->
        List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) [ v1; d1 ])
  @@ fun () ->
  let analyze extra =
    [ "analyze"; "--seed"; "42"; "--size-mb"; "12"; "--plant";
      "callback:cipher"; "--plant"; "direct:ssl"; "--plant";
      "async-executor:cipher"; "--plant"; "direct:cipher"; "--insecure";
      "--jobs"; "1" ]
    @ extra
  in
  ignore (run_cli (analyze [ "--save-index"; v1 ]));
  ignore
    (run_cli
       (analyze
          [ "--mutate-pct"; "0.2"; "--load-index"; v1; "--save-index"; d1 ]));
  let persisted =
    match Store.Snapshot.load_results ~path:d1 with
    | Error e -> Alcotest.fail (Store.Codec.error_to_string e)
    | Ok strs ->
      (match Backdroid.Resultcache.of_strings strs with
       | Ok rc -> Backdroid.Resultcache.length rc
       | Error e -> Alcotest.fail e)
  in
  Alcotest.(check int) "v2's snapshot carries every sink's result" 4 persisted;
  let v3 = analyze [ "--mutate-pct"; "0.35" ] in
  let warm = run_cli (v3 @ [ "--load-index"; d1 ]) in
  let replayed =
    List.find_map
      (fun l ->
         if String.starts_with ~prefix:"stats:" l then
           List.find_map
             (fun part ->
                Scanf.sscanf_opt (String.trim part) "%d replayed sinks%!"
                  Fun.id)
             (String.split_on_char ',' l)
         else None)
      warm
  in
  Alcotest.(check bool) "v3 replays a persisted sink" true
    (match replayed with Some n -> n >= 1 | None -> false);
  let sink_lines = List.filter (String.starts_with ~prefix:"  [") in
  Alcotest.(check (list string)) "per-sink lines == cold v3"
    (sink_lines (run_cli v3)) (sink_lines warm)

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

(* An update that removes every app class leaves a delta engine with no
   lines at all — not one placeholder line — and it saves and loads back
   as such. *)
let test_delta_to_empty_app () =
  with_snapshot @@ fun ~app ~path ->
  let emptied =
    Ir.Program.of_classes
      (Ir.Program.fold_classes app.G.program
         (fun (c : Ir.Jclass.t) acc ->
            if c.Ir.Jclass.is_system then c :: acc else acc)
         [])
  in
  let engine =
    match Store.Snapshot.delta ~path emptied with
    | Ok (e, _) -> e
    | Error e -> Alcotest.failf "delta: %s" (Store.Codec.error_to_string e)
  in
  Alcotest.(check int) "no lines" 0 (Dex.Dexfile.line_count (E.dexfile engine));
  let path2 = Filename.temp_file "backdroid_empty" ".bdix" in
  Fun.protect ~finally:(fun () -> try Sys.remove path2 with Sys_error _ -> ())
  @@ fun () ->
  ignore (Store.Snapshot.save ~path:path2 engine);
  match Store.Snapshot.load ~path:path2 emptied with
  | Ok e ->
    Alcotest.(check int) "no lines after a reload" 0
      (Dex.Dexfile.line_count (E.dexfile e))
  | Error e -> Alcotest.failf "load: %s" (Store.Codec.error_to_string e)

(* An engine with no class map (pre-delta snapshot, or a cold engine built
   before classmaps existed) cannot be delta-patched: typed error, so
   callers fall back to a cold build. *)
let test_delta_requires_classmap () =
  let app = fixture_app () in
  let dex = app.G.dex in
  let stripped =
    Dex.Dexfile.of_parts ~lines:(Dex.Dexfile.line_count dex)
      ~classmap:Dex.Classmap.empty dex.Dex.Dexfile.arena dex.Dex.Dexfile.program
  in
  let engine = E.create stripped in
  match Store.Snapshot.delta_of_engine engine app.G.program with
  | Ok _ -> Alcotest.fail "delta on a classmap-less engine succeeded"
  | Error (Store.Codec.Corrupt _) -> ()
  | Error e ->
    Alcotest.failf "expected Corrupt, got %s" (Store.Codec.error_to_string e)

let app_class_names (app : G.app) =
  Ir.Program.fold_classes app.G.program
    (fun (c : Ir.Jclass.t) acc ->
       if c.Ir.Jclass.is_system then acc else c.Ir.Jclass.name :: acc)
    []
  |> List.sort String.compare

(* [app]'s dexfile with its classes in an order no disassembly uses. *)
let partition_order app =
  let front, back =
    List.partition (fun n -> String.length n mod 2 = 0) (app_class_names app)
  in
  Dex.Dexfile.of_partitions app.G.program [ List.rev back; front ]

(* With no class changed, added or removed, in whatever order the old
   build lists them, a delta hands back the engine it was given: every
   class and line reused, none rendered, no postings carried or rebuilt,
   and no [store.delta.*] metric recorded. *)
let check_unchanged_delta what old_engine program =
  let loads = counter "store.delta.loads" in
  let e, rep = ok_or what (Store.Snapshot.delta_of_engine old_engine program) in
  Alcotest.(check bool) (what ^ ": the engine it was given") true
    (e == old_engine);
  Alcotest.(check int) (what ^ ": store.delta.loads") loads
    (counter "store.delta.loads");
  let open Store.Snapshot in
  Alcotest.(check bool) (what ^ ": an unchanged report") true
    (rep.d_total > 0 && unchanged rep);
  Alcotest.(check int) (what ^ ": d_unchanged = d_total") rep.d_total
    rep.d_unchanged;
  Alcotest.(check (list int))
    (what ^ ": lines reused and rendered, postings carried and rebuilt")
    [ Dex.Dexfile.line_count (E.dexfile old_engine); 0; 0; 0 ]
    [ rep.d_lines_reused; rep.d_lines_rendered; rep.d_carried_postings;
      rep.d_rebuilt_postings ]

(* The delta re-derives the layout exactly: a delta engine's line texts,
   class map, arena and all seven postings tables equal a cold build's,
   whether the old engine was built cold or loaded from its snapshot, and
   so does a second-generation delta, patched from the first back to the
   old program.  A loaded engine's text equals the text of the build it
   was saved from.  From an old build in partition order the old->new
   slot map is not monotone, so the carried runs go through the re-sort
   path, and the loaded text walks the classes in partition order; with
   nothing changed, nothing is re-laid out; with all but one class
   removed, old runs are longer than the new arena. *)
let test_delta_postings_equal_cold () =
  let app = fixture_app ~filler:20 () in
  let names = app_class_names app in
  let partitioned = partition_order app in
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
  let path = Filename.temp_file "backdroid_deltacold" ".bdix" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  let loaded old_dex =
    ignore (Store.Snapshot.save ~path (E.create old_dex));
    match Store.Snapshot.load ~path app.G.program with
    | Ok e -> e
    | Error e -> Alcotest.failf "load: %s" (Store.Codec.error_to_string e)
  in
  let delta what old_engine program =
    match Store.Snapshot.delta_of_engine old_engine program with
    | Ok (e, _) -> e
    | Error e -> Alcotest.failf "%s: %s" what (Store.Codec.error_to_string e)
  in
  let check_like_cold what program delta =
    let cold_dex = Dex.Dexfile.of_program program in
    let cold = E.create cold_dex in
    let cold_cm = Dex.Dexfile.classmap cold_dex in
    let dex = E.dexfile delta in
    Alcotest.(check string) (what ^ ": texts")
      (Dex.Dexfile.to_string cold_dex) (Dex.Dexfile.to_string dex);
    let cm = Dex.Dexfile.classmap dex in
    Alcotest.(check (array string)) (what ^ ": class names")
      cold_cm.Dex.Classmap.names cm.Dex.Classmap.names;
    List.iter
      (fun (name, f) ->
         Alcotest.(check (array int)) (what ^ ": class " ^ name)
           (f cold_cm) (f cm))
      [ ("line_lo", fun c -> c.Dex.Classmap.line_lo);
        ("line_hi", fun c -> c.Dex.Classmap.line_hi);
        ("slot_lo", fun c -> c.Dex.Classmap.slot_lo);
        ("slot_hi", fun c -> c.Dex.Classmap.slot_hi) ];
    Alcotest.(check (array int64)) (what ^ ": class ir_hash")
      cold_cm.Dex.Classmap.ir_hash cm.Dex.Classmap.ir_hash;
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
      (E.export_packed cold)
  in
  List.iter
    (fun (what, old_dex, v2_program) ->
       let snapshot = loaded old_dex in
       Alcotest.(check string) (what ^ ": loaded text")
         (Dex.Dexfile.to_string old_dex)
         (Dex.Dexfile.to_string (E.dexfile snapshot));
       List.iter
         (fun (from, old_engine) ->
            let what = what ^ ", from " ^ from in
            let d1 = delta what old_engine v2_program in
            check_like_cold what v2_program d1;
            let what = what ^ ", second generation" in
            check_like_cold what app.G.program
              (delta what d1 app.G.program))
         [ ("cold", E.create old_dex); ("snapshot", snapshot) ])
    [ ("canonical order, 25% changed", app.G.dex, changed);
      ("partition order, 25% changed", partitioned, changed);
      ("canonical order, all but one class removed", app.G.dex, shrunk) ];
  let snapshot = loaded partitioned in
  List.iter
    (fun (from, old_engine) ->
       check_unchanged_delta ("partition order, unchanged, from " ^ from)
         old_engine app.G.program)
    [ ("cold", E.create partitioned); ("snapshot", snapshot) ]

(* An unchanged program, in the canonical order or another, gets the
   engine it was given back from [delta_of_engine], and the loaded one
   from the file-based [delta]. *)
let test_unchanged_delta_reuses_engine () =
  let app = fixture_app ~filler:20 () in
  let path = Filename.temp_file "backdroid_unchanged" ".bdix" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  List.iter
    (fun (order, dex) ->
       let cold = E.create dex in
       ignore (Store.Snapshot.save ~path cold);
       let loaded = ok_or "load" (Store.Snapshot.load ~path app.G.program) in
       check_unchanged_delta (order ^ ", from cold") cold app.G.program;
       check_unchanged_delta (order ^ ", from snapshot") loaded app.G.program;
       let e, rep = ok_or "delta" (Store.Snapshot.delta ~path app.G.program) in
       Alcotest.(check bool) (order ^ ": the file delta is the loaded engine")
         true
         (Store.Snapshot.unchanged rep && E.index_mode e = "snapshot"))
    [ ("canonical order", app.G.dex); ("partition order", partition_order app) ]

(* Property: over random (seed, pct) — including pct=0 (pure reuse) and
   pct=1 (everything re-rendered) — incremental always equals from-scratch. *)
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
  let r = Obs.Span.install_recorder () in
  Fun.protect
    ~finally:(fun () ->
        Obs.Span.set_sink None;
        try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  let count name =
    List.length
      (List.filter
         (fun (s : Obs.Span.span) -> s.cat = "dex" && s.name = name)
         (Obs.Ring.snapshot r))
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

(* -- The streamed writer ----------------------------------------------- *)

module C = Store.Codec

(* What a generated section holds, and how it is handed to the writer. *)
type spec =
  | Ivec of int array          (* [C.ivec] over an off-heap copy *)
  | Ints of int array          (* [C.ints] *)
  | Strings of string array    (* [C.put_string] each: the concatenation *)
  | Bytevec of string          (* [C.bvec] over an off-heap copy *)

let spec_bytes = function
  | Ivec a | Ints a ->
    let b = Bytes.create (8 * Array.length a) in
    Array.iteri (fun i x -> Bytes.set_int64_ne b (8 * i) (Int64.of_int x)) a;
    Bytes.to_string b
  | Strings a -> String.concat "" (Array.to_list a)
  | Bytevec s -> s

let to_section id = function
  | Ivec a -> C.ivec ~id (Ivec.of_array a)
  | Ints a -> C.ints ~id a
  | Strings a ->
    C.section ~id ~len:(String.length (spec_bytes (Strings a))) (fun s ->
        Array.iter (C.put_string s) a)
  | Bytevec s -> C.bvec ~id (Bvec.of_string s)

let print_spec (id, sp) =
  let kind =
    match sp with
    | Ivec _ -> "ivec"
    | Ints _ -> "ints"
    | Strings a -> Printf.sprintf "strings[%d]" (Array.length a)
    | Bytevec _ -> "bvec"
  in
  Printf.sprintf "%d:%s/%d" id kind (String.length (spec_bytes sp))

(* Byte lengths: empty, every residue mod 8, and past one write chunk. *)
let gen_len =
  QCheck.Gen.(
    frequency
      [ (1, return 0); (4, int_range 1 40);
        (2, int_range (C.chunk_len - 9) (C.chunk_len + 9));
        (1, int_range (C.chunk_len + 10) ((2 * C.chunk_len) + 17)) ])

let gen_spec =
  QCheck.Gen.(
    let words =
      let* n = map (fun l -> l / 8) gen_len in
      array_size (return n)
        (oneof [ int; int_range (-3) 3; oneofl [ min_int; max_int; -1 ] ])
    in
    let bytes = gen_len >>= fun n -> string_size ~gen:char (return n) in
    oneof
      [ map (fun a -> Ivec a) words;
        map (fun a -> Ints a) words;
        map (fun s -> Bytevec s) bytes;
        (* one string; a few; or many short ones, which end on every
           chunk offset, aligned or not *)
        (let short = string_size ~gen:char (int_range 0 17) in
         let* parts =
           oneof
             [ map (fun s -> [| s |]) bytes;
               array_size (int_range 0 6) (oneof [ short; bytes ]);
               array_size (int_range 0 12_000) short ]
         in
         return (Strings parts)) ])

let gen_sections =
  QCheck.Gen.(
    let* k = int_range 0 7 in
    let* ids = list_size (return k) (int_range 0 100_000) in
    let ids = List.sort_uniq compare ids in
    let* ids = shuffle_l ids in
    let* specs = list_size (return (List.length ids)) gen_spec in
    return (List.combine ids specs))

(* The file image [codec.mli] documents, built independently: header,
   directory, 8-aligned payloads, zero padding, sealed with [fnv1a64]. *)
let reference_image sections =
  let n = List.length sections in
  let align n = (n + 7) land lnot 7 in
  let off = ref (C.header_len + (24 * n)) in
  let placed =
    List.map
      (fun (id, sp) ->
         let o = align !off in
         let b = spec_bytes sp in
         off := o + String.length b;
         (id, o, b))
      sections
  in
  let total = align !off in
  let img = Bytes.make total '\000' in
  Bytes.blit_string C.magic 0 img 0 8;
  Bytes.set_int32_le img 8 (Int32.of_int C.format_version);
  Bytes.set_int32_le img 12 (Int32.of_int n);
  Bytes.set_int64_le img 16 (Int64.of_int total);
  List.iteri
    (fun i (id, o, b) ->
       let e = C.header_len + (24 * i) in
       Bytes.set_int64_le img e (Int64.of_int id);
       Bytes.set_int64_le img (e + 8) (Int64.of_int o);
       Bytes.set_int64_le img (e + 16) (Int64.of_int (String.length b));
       Bytes.blit_string b 0 img o (String.length b))
    placed;
  Bytes.set_int64_le img C.checksum_offset
    (C.fnv1a64 ~pos:C.header_len ~len:(total - C.header_len) img);
  Bytes.to_string img

let writer_matches_layout =
  QCheck.Test.make ~name:"streamed writer == documented layout, reads back"
    ~count:60
    (QCheck.make
       ~print:(fun l -> String.concat " " (List.map print_spec l))
       gen_sections)
    (fun sections ->
       let path = Filename.temp_file "backdroid_codec" ".bdix" in
       Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
       let size =
         C.write_file ~path
           (List.map (fun (id, sp) -> to_section id sp) sections)
       in
       let expect = reference_image sections in
       if size <> String.length expect then
         QCheck.Test.fail_reportf "size %d, layout says %d" size
           (String.length expect);
       if read_all path <> expect then
         QCheck.Test.fail_report "file bytes differ from the reference image";
       let r =
         match C.read_file ~path with
         | Ok r -> r
         | Error e -> QCheck.Test.fail_reportf "read: %s" (C.error_to_string e)
       in
       Fun.protect ~finally:(fun () -> C.close r) @@ fun () ->
       List.iter
         (fun (id, sp) ->
            let got =
              match sp with
              | Ivec _ | Ints _ ->
                Result.map
                  (fun v -> spec_bytes (Ints (Ivec.to_array v)))
                  (C.map_ivec r ~id)
              | Strings _ | Bytevec _ ->
                let blob = C.read_blob r ~id in
                let mapped = Result.map Bvec.to_string (C.map_bytes r ~id) in
                if blob <> mapped then
                  QCheck.Test.fail_reportf "section %d: blob <> mapped" id;
                blob
            in
            match got with
            | Ok b when b = spec_bytes sp -> ()
            | Ok _ -> QCheck.Test.fail_reportf "section %d reads back wrong" id
            | Error e ->
              QCheck.Test.fail_reportf "section %d: %s" id
                (C.error_to_string e))
         sections;
       true)

(* A save that fails — here the rename onto a directory — raises the I/O
   error the daemon handles, and leaves no temp file behind. *)
let test_failed_save_leaves_no_temp () =
  let app = fixture_app () in
  let dir = Filename.temp_dir "backdroid_store" "" in
  let target = Filename.concat dir "target.bdix" in
  Sys.mkdir target 0o755;
  Fun.protect ~finally:(fun () -> Sys.rmdir target; Sys.rmdir dir)
  @@ fun () ->
  (match Store.Snapshot.save ~path:target (E.create app.G.dex) with
   | _ -> Alcotest.fail "a save onto a directory succeeded"
   | exception Sys_error _ -> ());
  Alcotest.(check (list string)) "only the directory remains"
    [ "target.bdix" ] (Array.to_list (Sys.readdir dir))

(* Saves racing to one path each write their own temp file: every one
   completes, the survivor is a whole snapshot, and no temp file is
   left. *)
let test_concurrent_saves_one_path () =
  let app = fixture_app () in
  let engine = E.create app.G.dex in
  let dir = Filename.temp_dir "backdroid_store" "" in
  let target = Filename.concat dir "target.bdix" in
  Fun.protect
    ~finally:(fun () ->
        Array.iter (fun f -> Sys.remove (Filename.concat dir f))
          (Sys.readdir dir);
        Sys.rmdir dir)
  @@ fun () ->
  let expect = Store.Snapshot.save ~path:target engine in
  let go = Atomic.make false in
  let save () =
    while not (Atomic.get go) do Domain.cpu_relax () done;
    List.init 4 (fun _ -> Store.Snapshot.save ~path:target engine)
  in
  let d1 = Domain.spawn save and d2 = Domain.spawn save in
  Atomic.set go true;
  let sizes = Domain.join d1 @ Domain.join d2 in
  Alcotest.(check (list int)) "every save completes"
    (List.init 8 (fun _ -> expect)) sizes;
  Alcotest.(check (list string)) "no temp file left" [ "target.bdix" ]
    (Array.to_list (Sys.readdir dir));
  match Store.Snapshot.load ~path:target app.G.program with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "survivor: %s" (Store.Codec.error_to_string e)

(* -- The text of a stored layout ---------------------------------------- *)

let text_renders () = counter "dex.text.renders"

(* A program whose [t.User.use] passes a class constant to an invoke and
   stores a string holding [str] and another class constant with an sput
   and an iput. *)
let keyed_operand_program ?(str = "Lt/Str;") ~extra_nop () =
  let helper = "t.Helper" in
  let f = Ir.Jsig.field ~cls:helper ~name:"f" ~ty:Ir.Types.object_ in
  let g = Ir.Jsig.field ~cls:helper ~name:"g" ~ty:Ir.Types.object_ in
  let help =
    Ir.Jsig.meth ~cls:helper ~name:"help"
      ~params:[ Ir.Types.Object "java.lang.Class" ] ~ret:Ir.Types.Void
  in
  let this_ = { Ir.Value.id = "this"; ty = Ir.Types.Object helper } in
  let body : Ir.Stmt.t array =
    Array.append
      (if extra_nop then [| Ir.Stmt.Nop |] else [||])
      [| Assign (this_, This);
         Invoke
           { kind = Static; callee = help; base = None;
             args = [ Const (Class_c "t.Arg") ] };
         Static_put (f, Const (Str_c str));
         Instance_put (this_, g, Const (Class_c "t.Field"));
         Return None |]
  in
  let meth m body = Ir.Jmethod.make ~msig:m ~body:(Some body) () in
  Ir.Program.of_classes
    [ Ir.Jclass.make helper ~fields:[ f; g ]
        ~methods:[ meth help [| Return None |] ];
      Ir.Jclass.make "t.User"
        ~methods:
          [ meth
              (Ir.Jsig.meth ~cls:"t.User" ~name:"use" ~params:[]
                 ~ret:Ir.Types.Void)
              body ] ]

(* A snapshot stores no text: saving, loading, delta-patching and analysing
   render none.  A loaded dexfile's text is rendered from the program on
   first read, equals the cold render and interns nothing; against a
   program with one changed class it raises instead, whether or not the
   change moves a line. *)
let test_loaded_text_from_ir () =
  let app = fixture_app ~seed:43 () in
  let path = Filename.temp_file "backdroid_text" ".bdix" in
  let path2 = Filename.temp_file "backdroid_text2" ".bdix" in
  Fun.protect
    ~finally:(fun () ->
        List.iter (fun p -> try Sys.remove p with Sys_error _ -> ())
          [ path; path2 ])
  @@ fun () ->
  let cold_text = Dex.Dexfile.to_string app.G.dex in
  let r0 = text_renders () in
  let cold = E.create (Dex.Dexfile.of_program app.G.program) in
  ignore (Store.Snapshot.save ~path cold);
  let loaded = ok_or "load" (Store.Snapshot.load ~path app.G.program) in
  ignore
    (Driver.analyze ~engine:loaded ~dex:(E.dexfile loaded)
       ~manifest:app.G.manifest ());
  let v2 = G.mutate ~build_dex:false ~pct:0.2 app in
  let delta, _ = ok_or "delta" (Store.Snapshot.delta ~path v2.G.program) in
  ignore (Store.Snapshot.save ~path:path2 delta);
  Alcotest.(check int) "save, load, analyze and delta render no text" r0
    (text_renders ());
  let interned = Sym.interned () in
  Alcotest.(check string) "loaded text == cold text" cold_text
    (Dex.Dexfile.to_string (E.dexfile loaded));
  Alcotest.(check int) "the text pass interns nothing" interned
    (Sym.interned ());
  Alcotest.(check int) "rendered once" (r0 + 1) (text_renders ());
  let one_changed = G.mutate ~seed:3 ~build_dex:false ~pct:0.01 app in
  let changed =
    Ir.Program.fold_classes one_changed.G.program
      (fun (c : Ir.Jclass.t) n ->
         match Ir.Program.find_class app.G.program c.Ir.Jclass.name with
         | Some o when Ir.Irhash.jclass o = Ir.Irhash.jclass c -> n
         | _ -> n + 1)
      0
  in
  Alcotest.(check int) "the update changes one class" 1 changed;
  let refuses what program =
    let stale = ok_or "load" (Store.Snapshot.load ~path program) in
    match Dex.Dexfile.text (E.dexfile stale) with
    | _ -> Alcotest.failf "%s: a stale program rendered a text" what
    | exception Invalid_argument _ -> ()
  in
  refuses "one class changed" one_changed.G.program;
  (* a change that keeps every line and slot count: only the IR hash
     tells the programs apart *)
  ignore
    (Store.Snapshot.save ~path
       (E.create
          (Dex.Dexfile.of_program (keyed_operand_program ~extra_nop:false ()))));
  refuses "one literal changed"
    (keyed_operand_program ~str:"Lt/Other;" ~extra_nop:false ())

(* A class constant, or a string holding a [';'], passed to an invoke or
   stored by an iput or sput is in the line's text, so an indexed
   [Class_use] must find it as a scan does, on every kind of engine. *)
let test_class_use_in_keyed_lines () =
  let p1 = keyed_operand_program ~extra_nop:false () in
  let p2 = keyed_operand_program ~extra_nop:true () in
  let path = Filename.temp_file "backdroid_keyed" ".bdix" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  let cold = E.create (Dex.Dexfile.of_program p1) in
  ignore (Store.Snapshot.save ~path cold);
  let loaded = ok_or "load" (Store.Snapshot.load ~path p1) in
  let delta, rep = ok_or "delta" (Store.Snapshot.delta ~path p2) in
  Alcotest.(check int) "the delta re-renders the user" 1
    rep.Store.Snapshot.d_changed;
  List.iter
    (fun (what, program, engine) ->
       let scan = E.create ~indexed:false (Dex.Dexfile.of_program program) in
       List.iter
         (fun desc ->
            let q = Bytesearch.Query.class_use desc in
            let expect = List.map Test_parallel.hit_fingerprint (E.run scan q) in
            Alcotest.(check int) (what ^ ": scan finds " ^ desc) 1
              (List.length expect);
            Alcotest.(check (list string))
              (what ^ ": indexed == scan for " ^ desc)
              expect
              (List.map Test_parallel.hit_fingerprint (E.run_uncached engine q)))
         [ "Lt/Arg;"; "Lt/Str;"; "Lt/Field;" ])
    [ ("cold", p1, cold); ("loaded", p1, loaded); ("delta", p2, delta) ]

(* -- The owner table of a loaded engine ----------------------------------- *)

let owners_decoded () = counter "dex.owners.decoded"

let owner_table e = (E.dexfile e).Dex.Dexfile.arena.Dex.Arena.owners

(* A load leaves the owner table in its mapped sections: it decodes no
   owner, and a warm analysis decodes only those its hits name, fewer
   than the table holds. *)
let test_warm_decodes_fewer_owners () =
  with_snapshot @@ fun ~app ~path ->
  let d0 = owners_decoded () in
  let warm = ok_or "load" (Store.Snapshot.load ~path app.G.program) in
  Alcotest.(check int) "the load decodes no owner" d0 (owners_decoded ());
  let cold = Driver.analyze ~dex:app.G.dex ~manifest:app.G.manifest () in
  let r =
    Driver.analyze ~engine:warm ~dex:app.G.dex ~manifest:app.G.manifest ()
  in
  Alcotest.(check (list string)) "warm report == cold report"
    (List.map report_fingerprint cold.Driver.reports)
    (List.map report_fingerprint r.Driver.reports);
  let decoded = owners_decoded () - d0 in
  let table = Dex.Arena.Owners.length (owner_table warm) in
  Alcotest.(check bool) "the analysis decodes some owners" true (decoded > 0);
  Alcotest.(check bool)
    (Printf.sprintf "and fewer than the table holds (%d of %d)" decoded table)
    true (decoded < table)

(* Four domains materialising one loaded engine's hits at once — each
   entry decoded on first read, by whichever domain gets there — all get
   the cold engine's hits. *)
let test_concurrent_owner_decodes () =
  with_snapshot @@ fun ~app ~path ->
  let warm = ok_or "load" (Store.Snapshot.load ~path app.G.program) in
  let cold = E.create app.G.dex in
  let queries = Test_parallel.exhaustive_queries app.G.program in
  let hits e q = List.map Test_parallel.hit_fingerprint (E.run_uncached e q) in
  let expect = List.map (hits cold) queries in
  let go = Atomic.make false in
  let domains =
    List.init 4 (fun d ->
        Domain.spawn (fun () ->
            while not (Atomic.get go) do Domain.cpu_relax () done;
            (* half the domains walk the queries backwards *)
            let qs = if d mod 2 = 0 then queries else List.rev queries in
            let got = List.map (fun q -> (q, hits warm q)) qs in
            List.map (fun q -> List.assq q got) queries))
  in
  Atomic.set go true;
  List.iteri
    (fun d dom ->
       List.iter2
         (fun q (e, g) ->
            Alcotest.(check (list string))
              (Printf.sprintf "domain %d: %s" d (Bytesearch.Query.to_command q))
              e g)
         queries
         (List.combine expect (Domain.join dom)))
    domains

(* save -> load -> save is byte-identical whatever built the engine and
   however much of its owner table is decoded: a cold engine, a loaded one
   with none or half of its owners decoded, and delta engines patched from
   a cold and from a loaded engine, which save the same bytes. *)
let test_save_load_save_every_engine () =
  let app = fixture_app ~seed:44 () in
  let v2 = G.mutate ~build_dex:false ~pct:0.25 app in
  let dir = Filename.temp_dir "backdroid_resave" "" in
  Fun.protect
    ~finally:(fun () ->
        Array.iter (fun f -> Sys.remove (Filename.concat dir f))
          (Sys.readdir dir);
        Sys.rmdir dir)
  @@ fun () ->
  let n = ref 0 in
  let save e =
    incr n;
    let p = Filename.concat dir (Printf.sprintf "%d.bdix" !n) in
    ignore (Store.Snapshot.save ~path:p e);
    p
  in
  let stable what program e =
    let p1 = save e in
    let loaded = ok_or what (Store.Snapshot.load ~path:p1 program) in
    let p2 = save loaded in
    Alcotest.(check bool) (what ^ ": save -> load -> save") true
      (read_all p1 = read_all p2);
    (* decode every other owner, as hits would (an analysis would also
       intern symbols, which every save writes) *)
    let o = owner_table loaded in
    for i = 0 to Dex.Arena.Owners.length o - 1 do
      if i mod 2 = 0 then ignore (Dex.Arena.Owners.meth o i)
    done;
    Alcotest.(check bool) (what ^ ": with half its owners decoded") true
      (read_all p1 = read_all (save loaded));
    (p1, loaded)
  in
  let cold = E.create app.G.dex in
  let p_cold, loaded = stable "cold" app.G.program cold in
  let delta what e program =
    fst (ok_or what (Store.Snapshot.delta_of_engine e program))
  in
  let p_from_cold, _ =
    stable "delta from cold" v2.G.program
      (delta "delta from cold" cold v2.G.program)
  in
  let p_from_loaded, loaded_delta =
    stable "delta from loaded" v2.G.program
      (delta "delta from loaded" loaded v2.G.program)
  in
  Alcotest.(check bool) "a delta saves the same bytes from either base" true
    (read_all p_from_cold = read_all p_from_loaded);
  (* a second generation, back to the first program *)
  let p_back, _ =
    stable "second generation" app.G.program
      (delta "second generation" loaded_delta app.G.program)
  in
  Alcotest.(check bool) "non-trivial files" true
    (String.length (read_all p_cold) > 1024
     && String.length (read_all p_back) > 1024)

(* Signatures as a generated app renders them, a few of each class
   shape. *)
let rendered_sigs =
  lazy
    (List.concat_map
       (fun seed ->
          let app = fixture_app ~seed ~filler:3 () in
          let o = owner_table (E.create app.G.dex) in
          List.init (Dex.Arena.Owners.length o) (fun i ->
              Ir.Jsig.meth_to_string (Dex.Arena.Owners.meth o i)))
       [ 41; 42 ]
     |> Array.of_list)

let parses s =
  match Ir.Jsig.meth_of_string s with
  | _ -> true
  | exception Invalid_argument _ -> false

(* The load's signature check accepts exactly what [meth_of_string]
   parses: over rendered signatures, each with a byte deleted or one of
   the bytes the parser looks for inserted, anywhere. *)
let owner_check_like_parser =
  let gen =
    QCheck.Gen.(
      let* i = int_bound 1_000_000 in
      let* edit =
        oneof
          [ return `Keep;
            map (fun p -> `Delete p) (int_bound 200);
            map2 (fun p c -> `Insert (p, c)) (int_bound 200)
              (oneofl [ '<'; ':'; ' '; '('; ')'; '>'; '\t'; '\n'; '\r';
                        '\012' ]) ]
      in
      return (i, edit))
  in
  let edit s = function
    | `Keep -> s
    | `Delete p when String.length s = 0 -> ignore p; s
    | `Delete p ->
      let p = p mod String.length s in
      String.sub s 0 p ^ String.sub s (p + 1) (String.length s - p - 1)
    | `Insert (p, c) ->
      let p = p mod (String.length s + 1) in
      String.sub s 0 p ^ String.make 1 c ^ String.sub s p (String.length s - p)
  in
  let mutant (i, e) =
    let sigs = Lazy.force rendered_sigs in
    edit sigs.(i mod Array.length sigs) e
  in
  QCheck.Test.make ~name:"owner check == Jsig.meth_of_string" ~count:2000
    (QCheck.make ~print:(fun x -> Printf.sprintf "%S" (mutant x)) gen)
    (fun x ->
       let s = mutant x in
       (* between other bytes, as in a blob *)
       let b = Bvec.of_string (")>" ^ s ^ "<(") in
       let got = Ir.Jsig.meth_parses b ~pos:2 ~len:(String.length s) in
       if got <> parses s then
         QCheck.Test.fail_reportf "%S: check %b, parser %b" s got (parses s);
       true)

let cases =
  [ Alcotest.test_case "corrupted snapshots fail as typed errors" `Quick
      test_rejects_corruption;
    Alcotest.test_case "save -> load -> save is byte-identical" `Quick
      test_roundtrip_identical;
    Alcotest.test_case "a save writes only the symbols it references"
      `Quick test_save_ignores_later_symbols;
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
    Alcotest.test_case "CLI --load-index patches another app's snapshot"
      `Quick test_cli_load_index_checks_the_app;
    Alcotest.test_case "CLI saves replayed results for the next version"
      `Quick test_cli_replayed_results_persist;
    Alcotest.test_case "default snapshot path" `Quick test_default_path;
    Alcotest.test_case "delta patch == from-scratch (file + resident)" `Quick
      test_delta_equals_cold;
    Alcotest.test_case "delta engine saves and round-trips" `Quick
      test_delta_engine_roundtrip;
    Alcotest.test_case "delta to an app with no classes" `Quick
      test_delta_to_empty_app;
    Alcotest.test_case "delta without a class map is a typed error" `Quick
      test_delta_requires_classmap;
    Alcotest.test_case "delta postings == cold postings, any old order"
      `Quick test_delta_postings_equal_cold;
    Alcotest.test_case "an unchanged program gets its engine back" `Quick
      test_unchanged_delta_reuses_engine;
    Alcotest.test_case "class map is built on first use" `Quick
      test_classmap_on_first_use;
    Alcotest.test_case "class map is built once across domains" `Quick
      test_classmap_once_across_domains;
    Alcotest.test_case "a failed save leaves no temp file" `Quick
      test_failed_save_leaves_no_temp;
    Alcotest.test_case "concurrent saves to one path" `Quick
      test_concurrent_saves_one_path;
    Alcotest.test_case "a stored layout's text renders from the IR" `Quick
      test_loaded_text_from_ir;
    Alcotest.test_case "class-use finds a keyed line's other operands"
      `Quick test_class_use_in_keyed_lines;
    Alcotest.test_case "a warm analysis decodes fewer owners than stored"
      `Quick test_warm_decodes_fewer_owners;
    Alcotest.test_case "four domains decode one engine's owners" `Quick
      test_concurrent_owner_decodes;
    Alcotest.test_case "save -> load -> save for every kind of engine"
      `Quick test_save_load_save_every_engine;
    QCheck_alcotest.to_alcotest delta_equiv;
    QCheck_alcotest.to_alcotest codec_roundtrip;
    QCheck_alcotest.to_alcotest writer_matches_layout;
    QCheck_alcotest.to_alcotest owner_check_like_parser ]

let suites = [ "store.snapshot", cases ]
