(* Tests for persisted per-sink results (lib/core/resultcache.ml): replay
   refuses every entry whose slice a new version's code or manifest can
   change, and decoding untrusted results bytes gives a typed error,
   never an exception. *)

module G = Appgen.Generator
module E = Bytesearch.Engine
module Driver = Backdroid.Driver
module Rc = Backdroid.Resultcache
module B = Ir.Builder
module Types = Ir.Types
module Value = Ir.Value

(* -- Replay against hand-built versions -------------------------------- *)

(* [t.Main] is the registered activity; its [onCreate] passes
   [Helper.spec()] to [Util.encrypt], whose [Cipher.getInstance] is the
   one sink.  [Helper.spec] returns a [const-string] and nothing else, so
   no slot of [t.Helper] names a class.  [t.Filler] is on no slice. *)
let helper_spec =
  Ir.Jsig.meth ~cls:"t.Helper" ~name:"spec" ~params:[] ~ret:Types.string_

let util_encrypt =
  Ir.Jsig.meth ~cls:"t.Util" ~name:"encrypt" ~params:[ Types.string_ ]
    ~ret:Types.Void

let ecb = "AES/ECB/PKCS5Padding"
let gcm = "AES/GCM/NoPadding"

let static_method ~cls ~name ~params ~ret body =
  B.method_ ~access:B.static_access ~cls ~name ~params ~ret body

let helper ~spec =
  Ir.Jclass.make "t.Helper"
    ~methods:
      [ static_method ~cls:"t.Helper" ~name:"spec" ~params:[]
          ~ret:Types.string_ (fun mb ->
            B.return_val mb (Value.Local (B.const_str mb spec))) ]

let util =
  Ir.Jclass.make "t.Util"
    ~methods:
      [ static_method ~cls:"t.Util" ~name:"encrypt"
          ~params:[ Types.string_ ] ~ret:Types.Void (fun mb ->
            ignore
              (B.invoke_ret mb ~kind:Ir.Expr.Static
                 ~callee:Framework.Api.cipher_get_instance
                 ~args:[ Value.Local (B.param mb 0) ] ());
            B.return_void mb) ]

let activity cls body =
  Ir.Jclass.make ~super:(Some "android.app.Activity") cls
    ~methods:
      [ B.method_ ~cls ~name:"onCreate" ~params:[ Framework.Api.bundle_t ]
          ~ret:Types.Void (fun mb ->
            body mb;
            B.return_void mb) ]

let main =
  activity "t.Main" (fun mb ->
      let s =
        B.invoke_ret mb ~kind:Ir.Expr.Static ~callee:helper_spec ~args:[] ()
      in
      B.call_static mb ~callee:util_encrypt ~args:[ Value.Local s ])

(* a new activity that calls [Util.encrypt] with its own mode *)
let other =
  activity "t.Other" (fun mb ->
      B.call_static mb ~callee:util_encrypt
        ~args:[ Value.Local (B.const_str mb ecb) ])

let filler ~k =
  Ir.Jclass.make "t.Filler"
    ~methods:
      [ static_method ~cls:"t.Filler" ~name:"pad" ~params:[] ~ret:Types.Void
          (fun mb ->
             ignore (B.const_int mb k);
             B.return_void mb) ]

let version classes =
  let program =
    Ir.Program.of_classes (Framework.Stubs.classes () @ classes)
  in
  let components =
    List.filter_map
      (fun (c : Ir.Jclass.t) ->
         if c.Ir.Jclass.super = Some "android.app.Activity" then
           Some
             (Manifest.Component.make ~kind:Manifest.Component.Activity
                c.Ir.Jclass.name)
         else None)
      classes
  in
  (program, Manifest.App_manifest.make ~package:"t" ~components)

(* v1 analysed cold and saved with its results, as [--save-index] does;
   v2 opened with [Snapshot.delta] and analysed with those results.
   Returns the replayed count, the warm report lines and the cold ones. *)
let replay_v2 (p1, m1) (p2, m2) =
  let path = Filename.temp_file "backdroid_replay" ".bdix" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  let e1 = E.create (Dex.Dexfile.of_program p1) in
  let r1 = Driver.analyze ~engine:e1 ~dex:(E.dexfile e1) ~manifest:m1 () in
  (match Store.Warm.save ~path ~ruleset_hash:0 e1 r1 with
   | Ok (_, n) -> Alcotest.(check int) "v1 saves its one result" 1 n
   | Error m -> Alcotest.fail m);
  let engine, rep =
    Test_store.ok_or "delta" (Store.Snapshot.delta ~path p2)
  in
  Alcotest.(check bool) "v2 is patched" false (Store.Snapshot.unchanged rep);
  let strs = Test_store.ok_or "results" (Store.Snapshot.load_results ~path) in
  let results =
    match Rc.of_strings strs with
    | Ok rc -> rc
    | Error m -> Alcotest.fail m
  in
  let warm =
    Driver.analyze ~engine ~results ~dex:(E.dexfile engine) ~manifest:m2 ()
  in
  let cold = Driver.analyze ~dex:(Dex.Dexfile.of_program p2) ~manifest:m2 () in
  let sources =
    List.map
      (fun (r : Driver.sink_report) ->
         r.Driver.prov.Backdroid.Provenance.p_source
         = Backdroid.Provenance.Replayed)
      warm.Driver.reports
  in
  Alcotest.(check int) "each replayed report says so"
    warm.Driver.stats.Driver.replayed_sinks
    (List.length (List.filter Fun.id sources));
  ( warm.Driver.stats.Driver.replayed_sinks,
    Serve.Render.report_lines warm,
    Serve.Render.report_lines cold )

let verdict_of lines =
  match lines with
  | [ l ] -> List.hd (String.split_on_char ']' (String.trim l))
  | _ -> Alcotest.failf "expected one report line, got %d" (List.length lines)

(* (a) The footprint class [t.Helper] is edited so that the fact changes,
   and its re-indexed slots name no class: only its hash refuses the
   replay. *)
let test_edited_footprint_class () =
  let v1 = version [ main; helper ~spec:ecb; util; filler ~k:1 ] in
  let v2 = version [ main; helper ~spec:gcm; util; filler ~k:1 ] in
  let replayed, warm, cold = replay_v2 v1 v2 in
  Alcotest.(check string) "cold v2 is secure" "[secure" (verdict_of cold);
  Alcotest.(check (list string)) "report lines == cold" cold warm;
  Alcotest.(check int) "nothing replays" 0 replayed

(* (b) A new class calls [Util.encrypt]: the sink's method gains a caller,
   whose slot names a footprint class; every footprint hash still
   matches. *)
let test_new_caller () =
  let v1 = version [ main; helper ~spec:gcm; util; filler ~k:1 ] in
  let v2 = version [ main; helper ~spec:gcm; util; filler ~k:1; other ] in
  let replayed, warm, cold = replay_v2 v1 v2 in
  Alcotest.(check (list string)) "report lines == cold" cold warm;
  Alcotest.(check int) "nothing replays" 0 replayed

(* (c) A class on no slice is edited: the sink replays. *)
let test_unrelated_edit () =
  let v1 = version [ main; helper ~spec:ecb; util; filler ~k:1 ] in
  let v2 = version [ main; helper ~spec:ecb; util; filler ~k:2 ] in
  let replayed, warm, cold = replay_v2 v1 v2 in
  Alcotest.(check int) "the sink replays" 1 replayed;
  Alcotest.(check (list string)) "report lines == cold" cold warm

(* [t.Api]'s [<clinit>] passes ECB to [Api.setup], whose
   [Cipher.getInstance] is the sink, and the activity [t.Boot] reads
   [Api.cfg], so the class-use search from [t.Api] finds an entry.  The
   clinit resolution records only [Api.<clinit>], so [t.Boot] is on no
   footprint. *)
let api_cfg = Ir.Jsig.field ~cls:"t.Api" ~name:"cfg" ~ty:Types.string_

let api_setup =
  Ir.Jsig.meth ~cls:"t.Api" ~name:"setup" ~params:[ Types.string_ ]
    ~ret:Types.Void

let api =
  Ir.Jclass.make "t.Api" ~fields:[ api_cfg ]
    ~methods:
      [ B.clinit ~cls:"t.Api" (fun mb ->
            B.sput mb api_cfg (Value.Local (B.const_str mb "configured"));
            B.call_static mb ~callee:api_setup
              ~args:[ Value.Local (B.const_str mb ecb) ]);
        static_method ~cls:"t.Api" ~name:"setup" ~params:[ Types.string_ ]
          ~ret:Types.Void (fun mb ->
            ignore
              (B.invoke_ret mb ~kind:Ir.Expr.Static
                 ~callee:Framework.Api.cipher_get_instance
                 ~args:[ Value.Local (B.param mb 0) ] ());
            B.return_void mb) ]

let boot = activity "t.Boot" (fun mb -> ignore (B.sget mb api_cfg))

(* (d) A class on no slice is edited, so the open is patched, and the new
   manifest registers no component: the activity that made the sink
   reachable is no longer an entry, so the reachability changes with no
   footprint class edited, and nothing replays.  Once with the activity
   on the slice ([t.Main]), once with it on no footprint ([t.Boot]). *)
let test_unregistered_entry () =
  List.iter
    (fun classes ->
       let v1 = version (classes ~k:1) in
       let p2, _ = version (classes ~k:2) in
       let replayed, warm, cold =
         replay_v2 v1
           (p2, Manifest.App_manifest.make ~package:"t" ~components:[])
       in
       Alcotest.(check string) "cold v2 is unresolved" "[unresolved"
         (verdict_of cold);
       Alcotest.(check (list string)) "report lines == cold" cold warm;
       Alcotest.(check int) "nothing replays" 0 replayed)
    [ (fun ~k -> [ main; helper ~spec:ecb; util; filler ~k ]);
      (fun ~k -> [ boot; api; filler ~k ]) ]

(* -- Decoding untrusted results bytes ---------------------------------- *)

let decodes strs =
  match Rc.of_strings strs with
  | Ok _ -> `Ok
  | Error _ -> `Error
  | exception e -> `Raised (Printexc.to_string e)

let outcome =
  Alcotest.testable
    (fun ppf -> function
       | `Ok -> Fmt.string ppf "Ok"
       | `Error -> Fmt.string ppf "Error"
       | `Raised e -> Fmt.pf ppf "raised %s" e)
    ( = )

(* A valid entry is [E], the sink, parameter, method, site, reachability,
   fact and footprint, an int written [<decimal>;] and a string
   [<length>;:<bytes>]: "E1;:a0;1;:b0;1;U0;" has an unknown fact and no
   footprint class. *)
let test_fixed_malformed () =
  let check what strs expected =
    Alcotest.(check outcome) what expected (decodes strs)
  in
  check "a well-formed entry"
    [| "E1;:a0;1;:b0;1;U1;1;:c0123456789abcdef" |] `Ok;
  check "a string length of max_int"
    [| "E4611686018427387903;:" ^ String.make 40 'x' |] `Error;
  check "an object member count of max_int"
    [| "E1;:a0;1;:b0;1;O1;:c4611686018427387903;" |] `Error;
  check "an int that overflows" [| "E1;:a99999999999999999999;1;:b0;1;U0;" |]
    `Error;
  check "a negative member count" [| "E1;:a0;1;:b0;1;O1;:c-1;0;" |] `Error;
  check "a negative footprint count" [| "E1;:a0;1;:b0;1;U-2;" |] `Error;
  check "an array cell count past the bytes left"
    [| "E1;:a0;1;:b0;1;A3;:int100;" |] `Error;
  check "a class hash that is not hex"
    [| "E1;:a0;1;:b0;1;U1;1;:c0123456789abcdeg" |] `Error;
  check "the least int" [| "E1;:a0;1;:b0;1;I-4611686018427387904;0;" |] `Ok;
  check "one past the least int"
    [| "E1;:a0;1;:b0;1;I-4611686018427387905;0;" |] `Error

(* Results strings of real analyses. *)
let real_results =
  lazy
    (Array.concat
       (List.map
          (fun seed ->
             let app = Test_store.fixture_app ~seed () in
             let r =
               Driver.analyze ~dex:app.G.dex ~manifest:app.G.manifest ()
             in
             Rc.to_strings (Driver.export_results ~dex:app.G.dex r))
          [ 41; 42; 43 ]))

let results_mutants =
  let mutant (i, m) =
    let strs = Array.copy (Lazy.force real_results) in
    let i = i mod Array.length strs in
    strs.(i) <- Mutants.apply strs.(i) m;
    strs
  in
  QCheck.Test.make ~name:"mutated results decode to Ok or Error" ~count:1500
    (QCheck.make
       ~print:(fun x ->
           String.concat "\n"
             (Array.to_list (Array.map (Printf.sprintf "%S") (mutant x))))
       (QCheck.Gen.pair QCheck.Gen.nat Mutants.gen))
    (fun x ->
       match decodes (mutant x) with
       | `Ok | `Error -> true
       | `Raised e -> QCheck.Test.fail_reportf "raised %s" e)

(* The byte offset, in a snapshot file, of persisted result [k]: the
   results blob is section 46 and its offsets, section 45, start at 0. *)
let result_offset file k =
  let b = Bytes.unsafe_of_string file in
  let n = Int32.to_int (Bytes.get_int32_le b 12) in
  let section id =
    let off = ref (-1) in
    for i = 0 to n - 1 do
      let e = Store.Codec.header_len + (24 * i) in
      if Int64.to_int (Bytes.get_int64_le b e) = id then
        off := Int64.to_int (Bytes.get_int64_le b (e + 8))
    done;
    if !off < 0 then Alcotest.failf "no section %d" id;
    !off
  in
  section 46 + Int64.to_int (Bytes.get_int64_le b (section 45 + (8 * k)))

(* A results section damaged past the checksum's protection: a patched
   open warns, ignores the results and analyses as a cold run does. *)
let test_cli_resealed_results () =
  let v1 = Filename.temp_file "backdroid_evil" ".bdix" in
  Fun.protect ~finally:(fun () -> try Sys.remove v1 with Sys_error _ -> ())
  @@ fun () ->
  let args =
    [ "analyze"; "--seed"; "7"; "--size-mb"; "12"; "--plant";
      "callback:cipher"; "--plant"; "direct:ssl"; "--insecure" ]
  in
  ignore (Test_store.run_cli (args @ [ "--save-index"; v1 ]));
  let file = Test_store.read_all v1 in
  let b = Bytes.of_string file in
  Bytes.blit_string "E4611686018427387903;:" 0 b (result_offset file 0) 22;
  Test_store.write_all v1 (Bytes.to_string (Test_store.reseal b));
  let v2 = args @ [ "--mutate-pct"; "0.2" ] in
  let code, out, err =
    Test_store.run_cli_status (v2 @ [ "--load-index"; v1 ])
  in
  Alcotest.(check int) "exit 0" 0 code;
  Alcotest.(check bool) "a patched open" true
    (List.exists (String.starts_with ~prefix:"index: delta-patched") out);
  Alcotest.(check bool) "it warns" true
    (List.exists
       (fun l -> Test_eval.contains l "ignoring malformed result cache")
       err);
  let sink_lines = List.filter (String.starts_with ~prefix:"  [") in
  Alcotest.(check (list string)) "per-sink lines == cold"
    (sink_lines (Test_store.run_cli v2)) (sink_lines out)

let suites =
  [ ( "core.resultcache",
      [ Alcotest.test_case "an edited footprint class does not replay"
          `Quick test_edited_footprint_class;
        Alcotest.test_case "a new caller of the footprint does not replay"
          `Quick test_new_caller;
        Alcotest.test_case "an unrelated edit replays" `Quick
          test_unrelated_edit;
        Alcotest.test_case "malformed results are typed errors" `Quick
          test_fixed_malformed;
        QCheck_alcotest.to_alcotest results_mutants;
        Alcotest.test_case "CLI ignores a resealed bad results section"
          `Quick test_cli_resealed_results;
        Alcotest.test_case "a changed manifest does not replay" `Quick
          test_unregistered_entry ] ) ]
