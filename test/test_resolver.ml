(* Direct unit tests for the Resolver broker: the clinit class-use strategy
   (Sec. IV-C) and the two-time ICC strategy (Sec. IV-D) exercised through
   the uniform [Resolver.callers] API, the per-sink budget's typed [Partial]
   outcomes, and the "resolve" spans every resolution emits — exact per
   resolution at any pool width. *)

open Ir
module B = Builder
module Api = Framework.Api
module Context = Backdroid.Context
module Resolver = Backdroid.Resolver
module Driver = Backdroid.Driver

let plain_ctor ~cls ~super =
  B.constructor ~cls (fun mb ->
      B.invoke mb ~base:(B.this mb) ~kind:Expr.Special
        ~callee:(Jsig.meth ~cls:super ~name:"<init>" ~params:[] ~ret:Types.Void)
        ~args:[] ())

(** Build a full analysis context over hand-built classes: engine, manifest,
    shared state and a throwaway SSG. *)
let ctx_of ?budget classes components =
  let p = Program.of_classes (Framework.Stubs.classes () @ classes) in
  let engine = Bytesearch.Engine.create (Dex.Dexfile.of_program p) in
  let manifest = Manifest.App_manifest.make ~package:"rz" ~components in
  let shared = Context.shared ~engine ~manifest () in
  let sink_meth = Jsig.meth ~cls:"rz.X" ~name:"x" ~params:[] ~ret:Types.Void in
  Context.create ?budget shared
    ~ssg:(Backdroid.Ssg.create ~sink:Framework.Sinks.cipher ~sink_meth ~sink_site:0)

(* --- Sec. IV-C through the broker: recursive class-use search --- *)

let holder_cls = "rz.Holder"

let holder =
  Jclass.make holder_cls
    ~methods:
      [ B.clinit ~cls:holder_cls (fun mb -> ignore (B.const_str mb "seed"));
        B.method_ ~access:B.static_access ~cls:holder_cls ~name:"get"
          ~params:[] ~ret:Types.Void (fun _ -> ()) ]

let activity ~uses_holder =
  Jclass.make ~super:(Some "android.app.Activity") "rz.Act"
    ~methods:
      [ plain_ctor ~cls:"rz.Act" ~super:"android.app.Activity";
        B.method_ ~cls:"rz.Act" ~name:"onCreate" ~params:[ Api.bundle_t ]
          ~ret:Types.Void (fun mb ->
            if uses_holder then
              B.call_static mb
                ~callee:
                  (Jsig.meth ~cls:holder_cls ~name:"get" ~params:[]
                     ~ret:Types.Void)
                ~args:[]) ]

let clinit_meth =
  Jsig.meth ~cls:holder_cls ~name:"<clinit>" ~params:[] ~ret:Types.Void

let act_component = Manifest.Component.make ~kind:Manifest.Component.Activity "rz.Act"

let test_clinit_reachable () =
  let ctx = ctx_of [ holder; activity ~uses_holder:true ] [ act_component ] in
  let r = Resolver.callers ctx clinit_meth in
  Alcotest.(check string) "clinit strategy selected" "clinit"
    (Resolver.strategy_to_string r.Resolver.strategy);
  Alcotest.(check bool) "entry through class use from rz.Act" true
    r.Resolver.entry;
  Alcotest.(check bool) "complete: reachability only, no dataflow" true
    r.Resolver.complete;
  Alcotest.(check int) "no caller continuations for <clinit>" 0
    (List.length r.Resolver.callers)

let test_clinit_unreachable () =
  let ctx = ctx_of [ holder; activity ~uses_holder:false ] [ act_component ] in
  let r = Resolver.callers ctx clinit_meth in
  Alcotest.(check string) "clinit strategy selected" "clinit"
    (Resolver.strategy_to_string r.Resolver.strategy);
  Alcotest.(check bool) "unused class: not an entry" false r.Resolver.entry;
  Alcotest.(check bool) "unused class: flow does not complete" false
    r.Resolver.complete

(* --- Sec. IV-D through the broker: the two-time ICC search --- *)

let svc_cls = "rz.Svc"

let svc =
  Jclass.make ~super:(Some "android.app.Service") svc_cls
    ~methods:
      [ plain_ctor ~cls:svc_cls ~super:"android.app.Service";
        B.method_ ~cls:svc_cls ~name:"onStartCommand"
          ~params:[ Api.intent_t; Types.Int; Types.Int ] ~ret:Types.Int
          (fun mb -> B.return_val mb (Value.Const (Value.Int_c 1))) ]

let launcher =
  Jclass.make ~super:(Some "android.app.Activity") "rz.Launcher"
    ~methods:
      [ plain_ctor ~cls:"rz.Launcher" ~super:"android.app.Activity";
        B.method_ ~cls:"rz.Launcher" ~name:"onCreate" ~params:[ Api.bundle_t ]
          ~ret:Types.Void (fun mb ->
            let cls_c = B.const_class mb svc_cls in
            let intent =
              B.new_obj mb "android.content.Intent"
                ~ctor_params:[ Api.context_t; Types.Object "java.lang.Class" ]
                ~args:[ Value.Local (B.this mb); Value.Local cls_c ]
            in
            B.invoke mb ~base:(B.this mb) ~kind:Expr.Virtual
              ~callee:Api.context_start_service ~args:[ Value.Local intent ] ()) ]

let on_start_command =
  Jsig.meth ~cls:svc_cls ~name:"onStartCommand"
    ~params:[ Api.intent_t; Types.Int; Types.Int ] ~ret:Types.Int

let intent_demand =
  { Resolver.has_intent = true; has_this = false; this_fields = [] }

let test_icc_resolution () =
  let ctx =
    ctx_of [ svc; launcher ]
      [ Manifest.Component.make ~kind:Manifest.Component.Service svc_cls;
        Manifest.Component.make ~kind:Manifest.Component.Activity "rz.Launcher" ]
  in
  let r = Resolver.callers ~demand:intent_demand ctx on_start_command in
  Alcotest.(check string) "intent demand selects the ICC strategy" "icc"
    (Resolver.strategy_to_string r.Resolver.strategy);
  match r.Resolver.callers with
  | [ c ] ->
    Alcotest.(check string) "launch site found by the two-time merge"
      "rz.Launcher" c.Resolver.c_meth.Jsig.cls;
    (match c.Resolver.c_edge with
     | Backdroid.Ssg.Icc { handler; _ } ->
       Alcotest.(check string) "edge targets the handler" svc_cls
         handler.Jsig.cls
     | _ -> Alcotest.fail "expected an Icc edge");
    (match c.Resolver.c_bind with
     | Resolver.Bind_intent { intent_local; _ } ->
       Alcotest.(check bool) "Intent local captured for re-keying" true
         (intent_local <> "")
     | _ -> Alcotest.fail "expected a Bind_intent mapping")
  | l ->
    Alcotest.fail (Printf.sprintf "expected 1 icc caller, got %d" (List.length l))

let test_icc_unregistered () =
  let ctx =
    ctx_of [ svc; launcher ]
      [ Manifest.Component.make ~kind:Manifest.Component.Activity "rz.Launcher" ]
  in
  let r = Resolver.callers ~demand:intent_demand ctx on_start_command in
  Alcotest.(check string) "still the ICC strategy" "icc"
    (Resolver.strategy_to_string r.Resolver.strategy);
  Alcotest.(check int) "unregistered service yields no launch sites" 0
    (List.length r.Resolver.callers);
  Alcotest.(check bool) "and no entry/complete" false
    (r.Resolver.entry || r.Resolver.complete)

(* --- the per-sink budget: typed Partial outcomes + resolve spans --- *)

let pathological_app =
  lazy
    (Appgen.Generator.generate
       { Appgen.Generator.default_config with
         Appgen.Generator.seed = 11;
         name = "com.budget.deep";
         filler_classes = 2;
         plants =
           [ { Appgen.Generator.shape = Appgen.Shape.Static_chain;
               sink = Framework.Sinks.cipher; insecure = true } ] })

let slice_with ~budget =
  let app = Lazy.force pathological_app in
  let engine = Bytesearch.Engine.create app.Appgen.Generator.dex in
  let shared =
    Context.shared ~engine ~manifest:app.Appgen.Generator.manifest ()
  in
  match
    Backdroid.Driver.initial_sink_search
      ~cfg:Backdroid.Driver.default_config engine
  with
  | (sink, sink_meth, sink_site) :: _ ->
    snd (Backdroid.Slicer.slice ~shared ~budget ~sink ~sink_meth ~sink_site ())
  | [] -> Alcotest.fail "generated app has no sink occurrence"

(* Record spans for the duration of [f]; the global sink is cleared
   afterwards, also when [f] fails. *)
let with_recorder f =
  let recorder = Obs.Span.install_recorder () in
  Fun.protect ~finally:(fun () -> Obs.Span.set_sink None) (fun () ->
      let v = f () in
      (v, Resolver.resolve_spans (Obs.Ring.snapshot recorder)))

let test_budget_work_exhaustion () =
  let outcome, spans =
    with_recorder (fun () ->
        slice_with
          ~budget:{ Context.default_budget with Context.max_work = 0 })
  in
  (match outcome with
   | Context.Partial limits ->
     Alcotest.(check bool) "work limit named in the outcome" true
       (List.mem Context.Work limits)
   | Context.Complete -> Alcotest.fail "expected a Partial outcome");
  Alcotest.(check string) "outcome renders its limits" "partial(work)"
    (Context.outcome_to_string outcome);
  Alcotest.(check bool) "resolutions were traced before exhaustion" true
    (spans <> []);
  let json = Resolver.trace_json spans in
  Alcotest.(check bool) "trace dump is non-empty JSON" true
    (String.length json > 2 && String.sub json 0 1 = "{")

let test_budget_deadline () =
  let outcome =
    slice_with
      ~budget:
        { Context.default_budget with Context.time_limit_ms = Some 0.0 }
  in
  match outcome with
  | Context.Partial [ Context.Deadline ] -> ()
  | o ->
    Alcotest.fail
      (Printf.sprintf "expected partial(deadline), got %s"
         (Context.outcome_to_string o))

let test_unbudgeted_complete () =
  let outcome = slice_with ~budget:Context.default_budget in
  Alcotest.(check string) "default budget completes the slice" "complete"
    (Context.outcome_to_string outcome)

(* --- resolve spans: exact per resolution at any pool width --- *)

(* Fifteen shapes, each planted three times on both primary sinks: enough
   sink groups that jobs 4 slices them concurrently on several domains. *)
let many_plant_app =
  lazy
    (let shapes = List.filteri (fun i _ -> i < 15) Appgen.Shape.all in
     let plants =
       List.concat_map
         (fun shape ->
            List.concat
              (List.init 3 (fun _ ->
                   [ (Appgen.Shape.to_string shape, "cipher");
                     (Appgen.Shape.to_string shape, "ssl") ])))
         shapes
     in
     match
       Serve.Appspec.generate
         { Serve.Appspec.default with
           Serve.Appspec.seed = 7; size_mb = 30.0; plants }
     with
     | Ok app -> app
     | Error e -> Alcotest.fail e)

let resolve_run jobs =
  let app = Lazy.force many_plant_app in
  with_recorder (fun () ->
      Driver.analyze ~cfg:{ Driver.default_config with Driver.jobs }
        ~dex:app.Appgen.Generator.dex
        ~manifest:app.Appgen.Generator.manifest ())

(* "strategy|query|hits|searches" per resolve span, sorted: each
   resolution's whole record but its latency. *)
let records spans =
  let attr k (s : Obs.Span.span) =
    match List.assoc_opt k s.Obs.Span.attrs with
    | Some (Obs.Span.Str v) -> v
    | Some (Obs.Span.Int n) -> string_of_int n
    | _ -> "?"
  in
  List.sort compare
    (List.map
       (fun (s : Obs.Span.span) ->
          String.concat "|"
            [ s.Obs.Span.name; attr "query" s; attr "hits" s;
              attr "searches" s ])
       spans)

(* Resolutions of strategy [name] in the reports' provenance, counted once
   per sink site (rules sharing a site share its ledger). *)
let prov_count (r : Driver.result) name =
  List.sort_uniq compare
    (List.map
       (fun (rep : Driver.sink_report) ->
          ( (rep.Driver.sink.Framework.Sinks.name,
             Ir.Jsig.meth_to_string rep.Driver.meth, rep.Driver.site),
            rep.Driver.prov.Backdroid.Provenance.p_strategies ))
       r.Driver.reports)
  |> List.fold_left
    (fun acc (_, strategies) ->
       List.fold_left
         (fun acc (n, res, _) -> if n = name then acc + res else acc)
         acc strategies)
    0

(* Three jobs-4 runs: each interleaves the domains differently, and any
   one leaking a search into another resolution's count fails the test. *)
let test_resolve_spans_jobs () =
  let r1, spans1 = resolve_run 1 in
  Alcotest.(check bool) "the app takes many resolutions" true
    (List.length spans1 > 100);
  Alcotest.(check int) "one span per resolution"
    r1.Driver.stats.Driver.resolutions (List.length spans1);
  List.iteri
    (fun i (jobs, (r, spans)) ->
       Alcotest.(check (list string))
         (Printf.sprintf "resolve records equal at jobs 1 and %d (run %d)"
            jobs i)
         (records spans1) (records spans);
       Array.iter
         (fun s ->
            let name = Resolver.strategy_to_string s in
            Alcotest.(check int)
              (Printf.sprintf "%s spans = provenance (run %d)" name i)
              (prov_count r name)
              (List.length
                 (List.filter
                    (fun (sp : Obs.Span.span) -> sp.Obs.Span.name = name)
                    spans)))
         Context.strategies)
    ((1, (r1, spans1)) :: List.init 3 (fun _ -> (4, resolve_run 4)))

let cases =
  [ Alcotest.test_case "clinit reachable via class use" `Quick test_clinit_reachable;
    Alcotest.test_case "clinit unreachable when unused" `Quick test_clinit_unreachable;
    Alcotest.test_case "icc resolution with intent demand" `Quick test_icc_resolution;
    Alcotest.test_case "icc unregistered component" `Quick test_icc_unregistered;
    Alcotest.test_case "work budget yields partial + trace" `Quick
      test_budget_work_exhaustion;
    Alcotest.test_case "deadline budget yields partial" `Quick test_budget_deadline;
    Alcotest.test_case "default budget completes" `Quick test_unbudgeted_complete;
    Alcotest.test_case "resolve spans equal at jobs 1 and 4" `Quick
      test_resolve_spans_jobs ]

let suites = [ "resolver", cases ]
