(* Tests for the resident analysis service (lib/serve): the wire codec
   round-trips, admission control bounds in-flight work, and — the load-
   bearing property — a served analysis is byte-identical to the one-shot
   pipeline whatever the serving path (fresh build, resident hit, snapshot
   reload after eviction, K concurrent clients sharing one engine, jobs=1,
   2 or 4).  Only the timing header and the cumulative [stats:] line
   may differ between serving paths, so comparisons filter those two. *)

module S = Serve.Server
module C = Serve.Client
module P = Serve.Protocol
module A = Serve.Appspec

let spec = { A.default with A.seed = 77; size_mb = 0.5 }
let spec2 = { A.default with A.seed = 78; size_mb = 0.5 }

(* The one-shot transcript for [spec], as `backdroid analyze` prints it. *)
let oneshot spec =
  match A.generate ~build_dex:true spec with
  | Result.Error e -> Alcotest.fail ("fixture: " ^ e)
  | Result.Ok app ->
    let r =
      Backdroid.Driver.analyze ~dex:app.Appgen.Generator.dex
        ~manifest:app.Appgen.Generator.manifest ()
    in
    Serve.Render.render ~app_name:(A.app_name spec) ~seconds:0.0 r

(* Drop the wall-clock header and the cumulative engine-stats line: both
   legitimately vary across serving paths (a replayed analysis does fewer
   searches); every report line must match byte-for-byte. *)
let report_lines text =
  String.split_on_char '\n' text
  |> List.filter (fun l ->
      not (String.starts_with ~prefix:"analyzed " l)
      && not (String.starts_with ~prefix:"stats:" l))

let lines_t = Alcotest.(list string)

let tmp_name suffix =
  let f = Filename.temp_file "backdroid_serve" suffix in
  Sys.remove f;
  f

let with_server ?(jobs = 1) ?(max_resident = 4) f =
  let socket = tmp_name ".sock" in
  let cfg = { S.default_config with S.socket; jobs; max_resident } in
  match S.start cfg with
  | Result.Error e -> Alcotest.fail ("server start: " ^ e)
  | Result.Ok t ->
    Fun.protect ~finally:(fun () -> S.stop t; S.wait t) (fun () -> f ~socket t)

let call_ok conn req =
  match C.call conn req with
  | Result.Ok r -> r
  | Result.Error e -> Alcotest.fail ("call: " ^ e)

let analyze_text ?snapshot conn spec =
  match call_ok conn (P.Analyze { spec; snapshot; time_limit_ms = None }) with
  | P.Analyzed { text; cache; _ } -> (text, cache)
  | _ -> Alcotest.fail "expected Analyzed"

(* -- protocol codec -------------------------------------------------- *)

let requests =
  [ P.Analyze { spec; snapshot = None; time_limit_ms = None };
    P.Analyze
      { spec = { spec with A.plants = [ ("direct", "cipher") ]; insecure = true };
        snapshot = Some "/tmp/x.bdix";
        time_limit_ms = Some 125.5 };
    P.Query { spec; snapshot = None; kind = "class-use"; operand = "Lx/Y;" };
    P.Stats;
    P.Shutdown ]

let responses =
  [ P.Analyzed { text = "line1\nline2\n"; cache = P.Hit; wall_us = 42.5 };
    P.Analyzed { text = ""; cache = P.Delta; wall_us = 0.0 };
    P.Analyzed { text = "x"; cache = P.Miss; wall_us = 1e9 };
    P.Queried { total = 3; lines = [ "a:1: x"; "b:2: y" ]; wall_us = 7.0 };
    P.Stats_json "{\"jobs\":1}";
    P.Rejected P.Busy;
    P.Rejected P.Shutting_down;
    P.Shutdown_ok;
    P.Error "boom" ]

let test_codec_roundtrip () =
  List.iter
    (fun r ->
       match P.decode_request (P.encode_request r) with
       | Result.Ok r' ->
         Alcotest.(check bool) "request round-trips" true (r = r')
       | Result.Error e -> Alcotest.fail ("decode_request: " ^ e))
    requests;
  List.iter
    (fun r ->
       match P.decode_response (P.encode_response r) with
       | Result.Ok r' ->
         Alcotest.(check bool) "response round-trips" true (r = r')
       | Result.Error e -> Alcotest.fail ("decode_response: " ^ e))
    responses

let test_codec_rejects_garbage () =
  let bad s =
    match P.decode_request s with
    | Result.Ok _ -> Alcotest.fail "malformed payload decoded"
    | Result.Error _ -> ()
  in
  bad "";
  bad "\x01";                              (* version only *)
  bad "\x63\x01";                          (* wrong version *)
  bad "\x01\x63";                          (* unknown opcode *)
  (* truncated mid-field: a valid encoding with the tail cut off *)
  let whole = P.encode_request (List.nth requests 1) in
  bad (String.sub whole 0 (String.length whole - 3))

(* -- admission ------------------------------------------------------- *)

let test_admission_bounds () =
  let adm = Serve.Admission.create ~max_inflight:2 ~queue_timeout_ms:20.0 in
  Alcotest.(check bool) "slot 1" true (Serve.Admission.try_acquire adm);
  Alcotest.(check bool) "slot 2" true (Serve.Admission.try_acquire adm);
  Alcotest.(check int) "inflight" 2 (Serve.Admission.inflight adm);
  Alcotest.(check bool) "full" false (Serve.Admission.try_acquire adm);
  (* a timed acquire on a full gate must reject (and count it) *)
  Alcotest.(check bool) "queue timeout" false (Serve.Admission.acquire adm);
  Alcotest.(check int) "rejected" 1 (Serve.Admission.rejected adm);
  Serve.Admission.release adm;
  Alcotest.(check bool) "freed slot" true (Serve.Admission.acquire adm);
  Serve.Admission.release adm;
  Serve.Admission.release adm;
  Alcotest.(check int) "drained" 0 (Serve.Admission.inflight adm)

let test_admission_unblocks () =
  (* a waiter within the timeout gets the slot a concurrent release frees *)
  let adm = Serve.Admission.create ~max_inflight:1 ~queue_timeout_ms:2000.0 in
  Alcotest.(check bool) "taken" true (Serve.Admission.try_acquire adm);
  let releaser =
    Thread.create (fun () -> Thread.delay 0.05; Serve.Admission.release adm) ()
  in
  Alcotest.(check bool) "handed over" true (Serve.Admission.acquire adm);
  Thread.join releaser;
  Serve.Admission.release adm

(* -- end-to-end ------------------------------------------------------ *)

let test_served_identity () =
  let expected = report_lines (oneshot spec) in
  with_server @@ fun ~socket _ ->
  match
    C.with_conn ~socket (fun conn ->
        let miss_text, miss_cache = analyze_text conn spec in
        let hit_text, hit_cache = analyze_text conn spec in
        Result.Ok ((miss_text, miss_cache), (hit_text, hit_cache)))
  with
  | Result.Error e -> Alcotest.fail e
  | Result.Ok ((miss_text, miss_cache), (hit_text, hit_cache)) ->
    Alcotest.(check bool) "first is a miss" true (miss_cache = P.Miss);
    Alcotest.(check bool) "second is a hit" true (hit_cache = P.Hit);
    Alcotest.check lines_t "cold served = one-shot" expected
      (report_lines miss_text);
    Alcotest.check lines_t "resident served = one-shot" expected
      (report_lines hit_text)

let histo_count name =
  (Obs.Metrics.read (Obs.Metrics.histogram name)).Obs.Metrics.h_count

let test_query_and_stats () =
  with_server @@ fun ~socket _ ->
  let pool0 = histo_count "serve.pool_wait_us" in
  let adm0 = histo_count "serve.admission_wait_us" in
  match
    C.with_conn ~socket (fun conn ->
        let q =
          call_ok conn
            (P.Query
               { spec; snapshot = None; kind = "class-use";
                 operand = "Ljavax/crypto/Cipher;" })
        in
        let s = call_ok conn P.Stats in
        Result.Ok (q, s))
  with
  | Result.Error e -> Alcotest.fail e
  | Result.Ok (q, s) ->
    (match q with
     | P.Queried { total; lines; _ } ->
       Alcotest.(check bool) "cipher use found" true (total >= 1);
       Alcotest.(check bool) "lines returned" true (lines <> [])
     | _ -> Alcotest.fail "expected Queried");
    (match s with
     | P.Stats_json j ->
       Alcotest.(check (option int)) "analyze counted" (Some 0)
         (Obs.Jsonf.field_int j "requests_analyze");
       Alcotest.(check (option int)) "query counted" (Some 1)
         (Obs.Jsonf.field_int j "requests_query");
       (* the query waited once for admission and once in the pool queue *)
       Alcotest.(check int) "one pool wait" 1
         (histo_count "serve.pool_wait_us" - pool0);
       Alcotest.(check int) "one admission wait" 1
         (histo_count "serve.admission_wait_us" - adm0);
       List.iter
         (fun f ->
            Alcotest.(check bool) (f ^ " reported") true
              (Obs.Jsonf.field_float j f <> None))
         [ "pool_wait_us_p50"; "pool_wait_us_p90"; "admission_wait_us_p50";
           "admission_wait_us_p90" ]
     | _ -> Alcotest.fail "expected Stats_json")

(* K clients interleave analyze and query against one resident engine;
   every served transcript must equal the sequential one-shot, hot
   (pre-warmed cache) or cold (all K race the first miss), jobs=1, 2 or
   4. *)
let concurrent_sharing ~jobs ~prewarm () =
  let expected = report_lines (oneshot spec) in
  with_server ~jobs @@ fun ~socket _ ->
  if prewarm then
    (match
       C.with_conn ~socket (fun conn -> Result.Ok (analyze_text conn spec))
     with
     | Result.Ok _ -> ()
     | Result.Error e -> Alcotest.fail ("prewarm: " ^ e));
  let k = 4 and per_client = 3 in
  let failures = Array.make k None in
  let worker t =
    match
      C.with_conn ~socket (fun conn ->
          for _ = 1 to per_client do
            let text, _cache = analyze_text conn spec in
            if report_lines text <> expected then
              failwith "served transcript diverged from one-shot";
            (match
               call_ok conn
                 (P.Query
                    { spec; snapshot = None; kind = "class-use";
                      operand = "Ljavax/crypto/Cipher;" })
             with
             | P.Queried { total; _ } ->
               if total < 1 then failwith "query lost hits under concurrency"
             | _ -> failwith "expected Queried")
          done;
          Result.Ok ())
    with
    | Result.Ok () -> ()
    | Result.Error e -> failures.(t) <- Some e
    | exception Failure e -> failures.(t) <- Some e
  in
  let threads = List.init k (fun t -> Thread.create worker t) in
  List.iter Thread.join threads;
  Array.iter
    (function None -> () | Some e -> Alcotest.fail ("client: " ^ e))
    failures;
  (* one worker domain per job: no connection thread helps drain the
     pool, so domain 0 only does I/O *)
  match C.with_conn ~socket (fun conn -> Result.Ok (call_ok conn P.Stats)) with
  | Result.Ok (P.Stats_json j) ->
    Alcotest.(check (option int)) "workers" (Some jobs)
      (Obs.Jsonf.field_int j "workers")
  | Result.Ok _ -> Alcotest.fail "expected Stats_json"
  | Result.Error e -> Alcotest.fail ("stats: " ^ e)

let test_eviction_reload () =
  let expected = report_lines (oneshot spec) in
  let snap_a = tmp_name ".bdix" and snap_b = tmp_name ".bdix" in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> try Sys.remove p with Sys_error _ -> ())
        [ snap_a; snap_b ])
  @@ fun () ->
  with_server ~max_resident:1 @@ fun ~socket _ ->
  match
    C.with_conn ~socket (fun conn ->
        let _, c1 = analyze_text ~snapshot:snap_a conn spec in
        (* a second key under max_resident=1 must evict the first *)
        let _, c2 = analyze_text ~snapshot:snap_b conn spec2 in
        let text, c3 = analyze_text ~snapshot:snap_a conn spec in
        let stats =
          match call_ok conn P.Stats with
          | P.Stats_json j -> j
          | _ -> Alcotest.fail "expected Stats_json"
        in
        Result.Ok (c1, c2, (text, c3), stats))
  with
  | Result.Error e -> Alcotest.fail e
  | Result.Ok (c1, c2, (text, c3), stats) ->
    Alcotest.(check bool) "A cold" true (c1 = P.Miss);
    Alcotest.(check bool) "B evicts A" true (c2 = P.Miss);
    Alcotest.(check bool) "A reloads as a miss" true (c3 = P.Miss);
    Alcotest.(check bool) "snapshot A persisted" true (Sys.file_exists snap_a);
    Alcotest.check lines_t "A after eviction = one-shot" expected
      (report_lines text);
    Alcotest.(check (option int)) "one entry resident" (Some 1)
      (Obs.Jsonf.field_int stats "cache_entries");
    (match Obs.Jsonf.field_int stats "cache_evictions" with
     | Some n -> Alcotest.(check bool) "evictions happened" true (n >= 2)
     | None -> Alcotest.fail "no cache_evictions in stats")

(* The miss that saves a missing snapshot files its engine under the key
   the next identical request looks up: that request is a hit, and one
   engine stays resident. *)
let test_saved_snapshot_hit () =
  let snap = tmp_name ".bdix" in
  Fun.protect ~finally:(fun () -> try Sys.remove snap with Sys_error _ -> ())
  @@ fun () ->
  with_server @@ fun ~socket _ ->
  match
    C.with_conn ~socket (fun conn ->
        let _, c1 = analyze_text ~snapshot:snap conn spec in
        let _, c2 = analyze_text ~snapshot:snap conn spec in
        match call_ok conn P.Stats with
        | P.Stats_json j -> Result.Ok (c1, c2, j)
        | _ -> Alcotest.fail "expected Stats_json")
  with
  | Result.Error e -> Alcotest.fail e
  | Result.Ok (c1, c2, stats) ->
    Alcotest.(check bool) "snapshot saved" true (Sys.file_exists snap);
    Alcotest.(check bool) "first is a miss" true (c1 = P.Miss);
    Alcotest.(check bool) "second is a hit" true (c2 = P.Hit);
    Alcotest.(check (option int)) "one miss" (Some 1)
      (Obs.Jsonf.field_int stats "cache_misses");
    Alcotest.(check (option int)) "one entry resident" (Some 1)
      (Obs.Jsonf.field_int stats "cache_entries")

let test_shutdown_unlinks_socket () =
  let socket = tmp_name ".sock" in
  let cfg = { S.default_config with S.socket } in
  match S.start cfg with
  | Result.Error e -> Alcotest.fail ("server start: " ^ e)
  | Result.Ok t ->
    Alcotest.(check bool) "socket bound" true (Sys.file_exists socket);
    (match
       C.with_conn ~socket (fun conn -> Result.Ok (call_ok conn P.Shutdown))
     with
     | Result.Ok P.Shutdown_ok -> ()
     | Result.Ok _ -> Alcotest.fail "expected Shutdown_ok"
     | Result.Error e -> Alcotest.fail ("shutdown: " ^ e));
    S.wait t;
    Alcotest.(check bool) "socket unlinked" false (Sys.file_exists socket)

let test_live_socket_refused () =
  with_server @@ fun ~socket _ ->
  match S.start { S.default_config with S.socket } with
  | Result.Ok t2 ->
    S.stop t2; S.wait t2;
    Alcotest.fail "second daemon bound a live socket"
  | Result.Error e ->
    Alcotest.(check bool) "error names the live daemon" true
      (let lower = String.lowercase_ascii e in
       let has needle =
         let nl = String.length needle and ll = String.length lower in
         let rec go i = i + nl <= ll && (String.sub lower i nl = needle || go (i + 1)) in
         go 0
       in
       has "live" || has "already")

let test_stale_socket_reclaimed () =
  (* a socket file with no listener behind it (the previous daemon was
     SIGKILLed) must be reclaimed, not refused *)
  let socket = tmp_name ".sock" in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX socket);
  Unix.close fd;                      (* closed without listen/unlink: stale *)
  Alcotest.(check bool) "stale file present" true (Sys.file_exists socket);
  match S.start { S.default_config with S.socket } with
  | Result.Error e -> Alcotest.fail ("stale socket not reclaimed: " ^ e)
  | Result.Ok t ->
    S.stop t;
    S.wait t;
    Alcotest.(check bool) "socket unlinked" false (Sys.file_exists socket)

let suites =
  [ ( "serve.protocol",
      [ Alcotest.test_case "codec round-trips" `Quick test_codec_roundtrip;
        Alcotest.test_case "rejects garbage" `Quick test_codec_rejects_garbage ] );
    ( "serve.admission",
      [ Alcotest.test_case "bounds in-flight" `Quick test_admission_bounds;
        Alcotest.test_case "release unblocks waiter" `Quick
          test_admission_unblocks ] );
    ( "serve.daemon",
      [ Alcotest.test_case "served = one-shot (miss and hit)" `Quick
          test_served_identity;
        Alcotest.test_case "query and stats" `Quick test_query_and_stats;
        Alcotest.test_case "4 clients share one engine (hot, jobs=1)" `Quick
          (concurrent_sharing ~jobs:1 ~prewarm:true);
        Alcotest.test_case "4 clients share one engine (cold, jobs=1)" `Quick
          (concurrent_sharing ~jobs:1 ~prewarm:false);
        Alcotest.test_case "4 clients share one engine (hot, jobs=4)" `Quick
          (concurrent_sharing ~jobs:4 ~prewarm:true);
        Alcotest.test_case "4 clients share one engine (cold, jobs=4)" `Quick
          (concurrent_sharing ~jobs:4 ~prewarm:false);
        Alcotest.test_case "4 clients share one engine (hot, jobs=2)" `Quick
          (concurrent_sharing ~jobs:2 ~prewarm:true);
        Alcotest.test_case "4 clients share one engine (cold, jobs=2)" `Quick
          (concurrent_sharing ~jobs:2 ~prewarm:false);
        Alcotest.test_case "eviction reloads from snapshot" `Quick
          test_eviction_reload;
        Alcotest.test_case "a saved snapshot's next request hits" `Quick
          test_saved_snapshot_hit;
        Alcotest.test_case "shutdown unlinks the socket" `Quick
          test_shutdown_unlinks_socket;
        Alcotest.test_case "live socket refused" `Quick
          test_live_socket_refused;
        Alcotest.test_case "stale socket reclaimed" `Quick
          test_stale_socket_reclaimed ] ) ]
