(* The declarative rule engine: file-syntax round-trips, typed parse
   diagnostics, per-sink-group backtracking sharing, multi-rule ==
   N single-rule equivalence (one run alone, and four runs of one session
   at once, as a daemon at jobs 4 runs them), the three newer rule
   families end to end, and rule-set stamping of engines and snapshots. *)

module G = Appgen.Generator
module Shape = Appgen.Shape
module Sinks = Framework.Sinks
module Rule = Rules.Rule
module Builtin = Rules.Builtin
module Parse = Rules.Parse
module Driver = Backdroid.Driver
module Detectors = Backdroid.Detectors

let analyze ?(cfg = Driver.default_config) (app : G.app) =
  Driver.analyze ~cfg ~dex:app.dex ~manifest:app.manifest ()

let with_rules rules = { Driver.default_config with Driver.rules }

let make_app ?(seed = 42) ?(filler = 3) plants =
  G.generate
    { G.default_config with
      G.seed;
      name = Printf.sprintf "com.test.rules%d" seed;
      filler_classes = filler;
      plants = List.map (fun (shape, sink, insecure) -> { G.shape; sink; insecure }) plants }

(* A report, projected to comparable data (SSGs are shared physical values
   and carry no extra information for equality). *)
let key (rep : Driver.sink_report) =
  ( rep.rule.Rule.name,
    rep.sink.Sinks.name,
    Ir.Jsig.meth_to_string rep.meth,
    rep.site,
    rep.reachable,
    Backdroid.Facts.to_string rep.fact,
    Detectors.verdict_to_string rep.verdict )

let keys (r : Driver.result) = List.map key r.reports

(* Keys of [jobs] runs of one session: a run alone at jobs 1, else one run
   from each of [jobs] domains at once (a daemon's workers). *)
let keys_at ~jobs rules (app : G.app) =
  let cfg = with_rules rules in
  if jobs = 1 then [ keys (analyze ~cfg app) ]
  else
    List.map keys (Sessions.concurrent ~cfg ~jobs app).Sessions.results

(* ------------------------------------------------------------------ *)
(* Syntax round-trip and hashing *)

let test_roundtrip () =
  let src = Rule.list_to_source Builtin.extended in
  match Parse.rules_of_string src with
  | Error e -> Alcotest.fail (Parse.error_to_string e)
  | Ok rules ->
    Alcotest.(check int) "same rule count"
      (List.length Builtin.extended) (List.length rules);
    Alcotest.(check string) "re-render is identical"
      src (Rule.list_to_source rules);
    Alcotest.(check int) "content hash is identical"
      (Rule.hash_list Builtin.extended) (Rule.hash_list rules)

let test_hash_sensitivity () =
  let h = Rule.hash_list Builtin.primary in
  Alcotest.(check bool) "different sets hash differently" true
    (h <> Rule.hash_list Builtin.extended);
  let tweaked =
    match Builtin.primary with
    | r :: rest -> { r with Rule.insecure_when = Rule.True } :: rest
    | [] -> assert false
  in
  Alcotest.(check bool) "predicate change changes the hash" true
    (h <> Rule.hash_list tweaked)

(* ------------------------------------------------------------------ *)
(* Typed parse diagnostics *)

let parse_error src =
  match Parse.rules_of_string src with
  | Ok _ -> Alcotest.fail "malformed rule file parsed successfully"
  | Error e -> e

let test_error_syntax () =
  match parse_error "(rule (name x)" with
  | Parse.Syntax e ->
    Alcotest.(check bool) "position recorded" true (e.Rules.Sexp.pos.line >= 1)
  | Parse.Invalid _ -> Alcotest.fail "expected a Syntax error"

let sink_src =
  "(sink (class a.B) (method m) (params java.lang.String) (return void) \
   (arg 0))"

let test_error_missing_name () =
  match parse_error (Printf.sprintf "(rule %s)" sink_src) with
  | Parse.Invalid { field = "name"; rule = None; _ } -> ()
  | e -> Alcotest.fail (Parse.error_to_string e)

let test_error_missing_sink () =
  match parse_error "(rule (name x) (insecure-when true))" with
  | Parse.Invalid { field = "sink"; rule = Some "x"; _ } -> ()
  | e -> Alcotest.fail (Parse.error_to_string e)

let test_error_arg_range () =
  let src =
    "(rule (name x) (sink (class a.B) (method m) (params java.lang.String) \
     (return void) (arg 3)))"
  in
  match parse_error src with
  | Parse.Invalid { field = "arg"; rule = Some "x"; _ } -> ()
  | e -> Alcotest.fail (Parse.error_to_string e)

let test_error_unknown_pred () =
  let src =
    Printf.sprintf "(rule (name x) %s (insecure-when (frobnicate 1)))" sink_src
  in
  match parse_error src with
  | Parse.Invalid { field = "predicate"; rule = Some "x"; msg; _ } ->
    Alcotest.(check bool) "message names the predicate" true
      (String.length msg > 0)
  | e -> Alcotest.fail (Parse.error_to_string e)

let test_error_unknown_shape () =
  let src =
    Printf.sprintf "(rule (name x) %s (insecure-when (fact-is blob)))" sink_src
  in
  match parse_error src with
  | Parse.Invalid { field = "fact-is"; rule = Some "x"; _ } -> ()
  | e -> Alcotest.fail (Parse.error_to_string e)

let test_error_duplicate_rule () =
  let one = Printf.sprintf "(rule (name x) %s)" sink_src in
  match parse_error (one ^ "\n" ^ one) with
  | Parse.Invalid { field = "name"; rule = Some "x"; msg; _ } ->
    Alcotest.(check string) "diagnostic" "duplicate rule name" msg
  | e -> Alcotest.fail (Parse.error_to_string e)

let test_error_duplicate_field () =
  let src =
    Printf.sprintf "(rule (name x) %s (insecure-when true) (insecure-when false))"
      sink_src
  in
  match parse_error src with
  | Parse.Invalid { field = "insecure-when"; rule = Some "x"; msg; _ } ->
    Alcotest.(check string) "diagnostic" "duplicate field" msg
  | e -> Alcotest.fail (Parse.error_to_string e)

let test_error_to_string_positioned () =
  let s = Parse.error_to_string (parse_error "(rule (name x) (sink))") in
  Alcotest.(check bool) "mentions a line number" true
    (String.length s > 0
     &&
     let has_sub sub =
       let ls = String.length s and lb = String.length sub in
       let rec at i = i + lb <= ls && (String.sub s i lb = sub || at (i + 1)) in
       at 0
     in
     has_sub "line" && has_sub "'x'")

(* ------------------------------------------------------------------ *)
(* Shared per-sink-group backtracking *)

let slice_count () =
  Option.value ~default:0
    (List.assoc_opt "slice.sinks" (Obs.Metrics.snapshot ()).Obs.Metrics.counters)

let test_shared_group_slices_once () =
  (* five rules over the same cipher sink spec: one distinct call site means
     ONE backtracking pass however many rules fan out from it *)
  let app = make_app [ (Shape.Direct, Sinks.cipher, true) ] in
  let audit i =
    { Rule.name = Printf.sprintf "cipher-audit-%d" i;
      description = "audit variant";
      sinks = [ Sinks.cipher ];
      insecure_when = Rule.False;
      secure_when = Rule.True }
  in
  let c0 = slice_count () in
  ignore (analyze ~cfg:(with_rules [ Builtin.ecb_crypto ]) app);
  let single = slice_count () - c0 in
  let five = Builtin.ecb_crypto :: List.init 4 audit in
  let c1 = slice_count () in
  let r = analyze ~cfg:(with_rules five) app in
  let multi = slice_count () - c1 in
  Alcotest.(check int) "one distinct sink call site" 1
    r.Driver.stats.Driver.sink_calls;
  Alcotest.(check int) "five verdicts fan out" 5 (List.length r.Driver.reports);
  Alcotest.(check int) "backtracking passes do not scale with rules"
    single multi

(* ------------------------------------------------------------------ *)
(* Multi-rule run == N single-rule runs, sequentially and in parallel *)

let property_app () =
  make_app ~seed:43 ~filler:4
    [ (Shape.Direct, Sinks.cipher, true);
      (Shape.Callback, Sinks.ssl_factory, true);
      (Shape.Direct, Sinks.sms, true);
      (Shape.Webview_misuse, Sinks.webview_js, true);
      (Shape.Sql_injection, Sinks.sql_query, true);
      (Shape.Intent_redirect, Sinks.intent_redirect, true) ]

let test_multi_equals_singles jobs () =
  let app = property_app () in
  (* extended plus one extra rule sharing the cipher sink, so the fan-out
     path (not just one-rule groups) is part of the property *)
  let extra =
    { Rule.name = "cipher-extra";
      description = "shares the crypto sink spec with ecb-crypto";
      sinks = [ Sinks.cipher ];
      insecure_when = Rule.False;
      secure_when = Rule.Fact_is Rule.Const_str }
  in
  let rules = Builtin.extended @ [ extra ] in
  let singles =
    List.concat_map (fun r -> keys (analyze ~cfg:(with_rules [ r ]) app)) rules
  in
  let sort = List.sort compare in
  List.iter
    (fun multi ->
       Alcotest.(check int)
         (Printf.sprintf "same report count at --jobs %d" jobs)
         (List.length singles) (List.length multi);
       Alcotest.(check bool)
         (Printf.sprintf "multi-rule == N single-rule runs at --jobs %d" jobs)
         true
         (sort multi = sort singles))
    (keys_at ~jobs rules app)

let test_jobs_equivalence () =
  let app = property_app () in
  let alone = keys_at ~jobs:1 Builtin.extended app in
  List.iter
    (fun r4 ->
       Alcotest.(check bool) "identical reports at --jobs 1 and --jobs 4" true
         (alone = [ r4 ]))
    (keys_at ~jobs:4 Builtin.extended app)

(* ------------------------------------------------------------------ *)
(* The three newer families, end to end: fire on the trigger scenario,
   stay silent on the safe variant *)

let insecure_families (r : Driver.result) =
  List.sort_uniq compare
    (List.map
       (fun (rep : Driver.sink_report) -> rep.rule.Rule.name)
       (Driver.insecure_reports r))

let check_family shape sink families () =
  let cfg = with_rules Builtin.extended in
  let fired =
    insecure_families (analyze ~cfg (make_app [ (shape, sink, true) ]))
  in
  List.iter
    (fun f ->
       Alcotest.(check bool) (f ^ " fires on the trigger scenario") true
         (List.mem f fired))
    families;
  let safe =
    insecure_families (analyze ~cfg (make_app [ (shape, sink, false) ]))
  in
  Alcotest.(check (list string)) "silent on the safe variant" [] safe

(* ------------------------------------------------------------------ *)
(* Rule-set stamping: engines and snapshots *)

let test_engine_stamp () =
  let app = make_app [ (Shape.Direct, Sinks.cipher, true) ] in
  let engine = Bytesearch.Engine.create app.G.dex in
  Alcotest.(check bool) "fresh engine is unstamped" true
    (Bytesearch.Engine.ruleset_stamp engine = None);
  Alcotest.(check bool) "first stamp" true
    (Bytesearch.Engine.note_ruleset engine 7 = `First);
  Alcotest.(check bool) "same stamp" true
    (Bytesearch.Engine.note_ruleset engine 7 = `Same);
  Alcotest.(check bool) "changed stamp" true
    (Bytesearch.Engine.note_ruleset engine 8 = `Changed);
  Alcotest.(check bool) "stamp sticks" true
    (Bytesearch.Engine.ruleset_stamp engine = Some 8)

let test_snapshot_stamp () =
  let app = make_app ~seed:44 [ (Shape.Direct, Sinks.cipher, true) ] in
  let engine = Bytesearch.Engine.create app.G.dex in
  let hash = Rule.hash_list Builtin.extended in
  let path = Filename.temp_file "bdrules" ".bdix" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
       ignore (Store.Snapshot.save ~ruleset_hash:hash ~path engine);
       match Store.Snapshot.load ~path app.G.program with
       | Error e -> Alcotest.fail (Store.Codec.error_to_string e)
       | Ok warm ->
         Alcotest.(check bool) "warm engine carries the saved stamp" true
           (Bytesearch.Engine.ruleset_stamp warm = Some hash);
         Alcotest.(check bool) "same rule set is not a change" true
           (Bytesearch.Engine.note_ruleset warm hash = `Same);
         Alcotest.(check bool) "different rule set is flagged" true
           (Bytesearch.Engine.note_ruleset warm (hash + 1) = `Changed))

let test_snapshot_unstamped () =
  let app = make_app ~seed:45 [ (Shape.Direct, Sinks.cipher, true) ] in
  let engine = Bytesearch.Engine.create app.G.dex in
  let path = Filename.temp_file "bdrules" ".bdix" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
       ignore (Store.Snapshot.save ~path engine);
       match Store.Snapshot.load ~path app.G.program with
       | Error e -> Alcotest.fail (Store.Codec.error_to_string e)
       | Ok warm ->
         Alcotest.(check bool) "no stamp section, no stamp" true
           (Bytesearch.Engine.ruleset_stamp warm = None))

(* End to end: the corpus warm-cache scenario where the rule set changed
   between runs.  Run 1 analyzes under rule set A and saves the snapshot
   (stamped A, as the corpus cache does).  Run 2 warm-loads it but analyzes
   under rule set B: the stamp mismatch must be noticed — a warning is
   logged and the engine's query cache flushed — and the warm reports must
   be identical to a cold analysis under B. *)
let test_warm_cache_ruleset_change () =
  let app =
    make_app ~seed:46 ~filler:4
      [ (Shape.Direct, Sinks.cipher, true);
        (Shape.Static_chain, Sinks.sms, false) ]
  in
  let rules_a = Builtin.primary and rules_b = Builtin.extended in
  let path = Filename.temp_file "bdrules_warm" ".bdix" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  (* run 1: cold under A; save stamps the snapshot with the engine's own
     rule-set hash, which analyze just set to A's *)
  let e0 = Bytesearch.Engine.create app.G.dex in
  let _ =
    Driver.analyze ~cfg:(with_rules rules_a) ~engine:e0 ~dex:app.G.dex
      ~manifest:app.G.manifest ()
  in
  ignore (Store.Snapshot.save ~path e0);
  (* run 2: warm load, then analyze under B *)
  let warm =
    match Store.Snapshot.load ~path app.G.program with
    | Ok e -> e
    | Error e -> Alcotest.fail (Store.Codec.error_to_string e)
  in
  Alcotest.(check bool) "warm engine carries A's stamp" true
    (Bytesearch.Engine.ruleset_stamp warm = Some (Rule.hash_list rules_a));
  let warned = ref false in
  let prev_reporter = Logs.reporter () in
  let prev_level = Logs.Src.level Backdroid.Log.src in
  Logs.Src.set_level Backdroid.Log.src (Some Logs.Warning);
  Logs.set_reporter
    { Logs.report =
        (fun _src level ~over k _msgf ->
           if level = Logs.Warning then warned := true;
           over ();
           k ()) };
  let warm_r =
    Fun.protect
      ~finally:(fun () ->
        Logs.set_reporter prev_reporter;
        Logs.Src.set_level Backdroid.Log.src prev_level)
      (fun () ->
         Driver.analyze ~cfg:(with_rules rules_b) ~engine:warm ~dex:app.G.dex
           ~manifest:app.G.manifest ())
  in
  Alcotest.(check bool) "stamp mismatch logged a warning" true !warned;
  Alcotest.(check bool) "engine re-stamped with B" true
    (Bytesearch.Engine.ruleset_stamp warm = Some (Rule.hash_list rules_b));
  let cold_r = analyze ~cfg:(with_rules rules_b) app in
  Alcotest.(check bool) "fixture is non-trivial" true (keys cold_r <> []);
  Alcotest.(check bool) "warm reports under B == cold reports under B" true
    (keys warm_r = keys cold_r)

(* ------------------------------------------------------------------ *)

(* -- Mutated rule sources ----------------------------------------------- *)

let parses src =
  match Parse.rules_of_string src with
  | Ok rules -> `Ok rules
  | Error _ -> `Error
  | exception e -> `Raised (Printexc.to_string e)

(* Valid sources: the shipped rule file and the extended built-in set in
   the file syntax. *)
let rule_sources =
  lazy
    [| In_channel.with_open_bin "../rules/default.rules" In_channel.input_all;
       Rule.list_to_source Builtin.extended |]

type source_mutation =
  | Shared of Mutants.t  (* flips, truncation, spliced numbers *)
  | Requote of int * int  (* nth bare atom, quoted payload index *)

let bare = Rules.Sexp.is_bare_char

(* Positions where a bare atom starts: a bare character after a blank or
   an opening parenthesis. *)
let atom_starts s =
  List.filter
    (fun i -> bare s.[i] && (i = 0 || String.contains " \t\n(" s.[i - 1]))
    (List.init (String.length s) Fun.id)

(* Quoted atoms that no bare atom can spell. *)
let quoted =
  [| "\"a b\""; "\"(\""; "\"\""; "\"x;y\""; "\"\\\"q\\\"\""; "\"t\\tn\"" |]

let mutate_source s = function
  | Shared m -> Mutants.apply s m
  | Requote (k, v) ->
    (match atom_starts s with
     | [] -> s
     | starts ->
       let i = List.nth starts (k mod List.length starts) in
       let j = ref i in
       while !j < String.length s && bare s.[!j] do incr j done;
       String.sub s 0 i ^ quoted.(v mod Array.length quoted)
       ^ String.sub s !j (String.length s - !j))

(* A source that parses re-renders to one that parses to the same rules. *)
let check_source src =
  match parses src with
  | `Error -> true
  | `Raised e -> QCheck.Test.fail_reportf "raised %s" e
  | `Ok rules ->
    (match parses (Rule.list_to_source rules) with
     | `Ok rules' when rules' = rules -> true
     | `Ok _ -> QCheck.Test.fail_reportf "re-rendered rules differ"
     | `Error -> QCheck.Test.fail_reportf "re-rendered rules do not parse"
     | `Raised e -> QCheck.Test.fail_reportf "re-rendered rules raised %s" e)

let source_mutants =
  let open QCheck.Gen in
  let mutation =
    frequency
      [ (3, map (fun m -> Shared m) Mutants.gen);
        (1, map2 (fun k v -> Requote (k, v)) nat nat) ]
  in
  let mutant (i, m) =
    let srcs = Lazy.force rule_sources in
    mutate_source srcs.(i mod Array.length srcs) m
  in
  QCheck.Test.make ~name:"mutated rule sources parse or are typed errors"
    ~count:1500
    (QCheck.make ~print:(fun x -> Printf.sprintf "%S" (mutant x))
       (pair nat mutation))
    (fun x -> check_source (mutant x))

(* Fixed cases the property found: atoms a bare atom cannot spell were
   rendered bare, so the rendering parsed to other rules or not at all. *)
let test_quoted_atoms_rerender () =
  List.iter
    (fun src ->
       (match parses src with
        | `Ok _ -> ()
        | _ -> Alcotest.failf "%S does not parse" src);
       Alcotest.(check bool) (Printf.sprintf "%S re-renders" src) true
         (check_source src))
    [ "(rule (name \"t\\tn\") (sink (class javax.crypto.Cipher) \
       (method getInstance) (params java.lang.String) \
       (return javax.crypto.Cipher) (arg 0) (label crypto-cipher)) \
       (insecure-when (str-contains \"ECB\")))";
      "(rule (name \"a b\") (sink (class \"x;y\") (method \"(\") \
       (params \"p q\") (arg 0) (label \"\")) \
       (insecure-when (class-in \"c d\" e)))" ]

let cases =
  [ Alcotest.test_case "extended set round-trips through the file syntax"
      `Quick test_roundtrip;
    Alcotest.test_case "content hash is change-sensitive" `Quick
      test_hash_sensitivity;
    Alcotest.test_case "syntax error is positioned" `Quick test_error_syntax;
    Alcotest.test_case "missing name is typed" `Quick test_error_missing_name;
    Alcotest.test_case "missing sink is typed" `Quick test_error_missing_sink;
    Alcotest.test_case "arg out of range is typed" `Quick test_error_arg_range;
    Alcotest.test_case "unknown predicate is typed" `Quick
      test_error_unknown_pred;
    Alcotest.test_case "unknown fact shape is typed" `Quick
      test_error_unknown_shape;
    Alcotest.test_case "duplicate rule name is typed" `Quick
      test_error_duplicate_rule;
    Alcotest.test_case "duplicate field is typed" `Quick
      test_error_duplicate_field;
    Alcotest.test_case "diagnostics carry position and rule" `Quick
      test_error_to_string_positioned;
    Alcotest.test_case "shared sink group backtracks once" `Quick
      test_shared_group_slices_once;
    Alcotest.test_case "multi-rule == singles (--jobs 1)" `Quick
      (test_multi_equals_singles 1);
    Alcotest.test_case "multi-rule == singles (--jobs 4)" `Quick
      (test_multi_equals_singles 4);
    Alcotest.test_case "reports identical across jobs" `Quick
      test_jobs_equivalence;
    Alcotest.test_case "webview family fires / stays silent" `Quick
      (check_family Shape.Webview_misuse Sinks.webview_js
         [ "webview-js"; "webview-bridge" ]);
    Alcotest.test_case "sql-injection family fires / stays silent" `Quick
      (check_family Shape.Sql_injection Sinks.sql_query [ "sql-injection" ]);
    Alcotest.test_case "intent-redirect family fires / stays silent" `Quick
      (check_family Shape.Intent_redirect Sinks.intent_redirect
         [ "intent-redirect" ]);
    Alcotest.test_case "engine rule-set stamp transitions" `Quick
      test_engine_stamp;
    Alcotest.test_case "snapshot carries the rule-set stamp" `Quick
      test_snapshot_stamp;
    Alcotest.test_case "unstamped snapshot stays unstamped" `Quick
      test_snapshot_unstamped;
    Alcotest.test_case "warm cache under a changed rule set" `Quick
      test_warm_cache_ruleset_change ]

let suites =
  [ ("rules.engine", cases);
    ( "rules.parse",
      [ Alcotest.test_case "quoted atoms survive a re-rendering" `Quick
          test_quoted_atoms_rerender;
        QCheck_alcotest.to_alcotest source_mutants ] ) ]
