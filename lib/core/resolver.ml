(** The caller-resolution broker: the single entry point through which the
    backward slicing answers "who calls / activates this method?".

    {!callers} classifies the callee (absorbing the old [Dispatch] module),
    runs the matching Sec. IV search strategy — basic signature search
    (IV-A), forward object taint (IV-B), recursive class-use search for
    [<clinit>] (IV-C), the two-time ICC search (IV-D) or the lifecycle
    domain knowledge (IV-E) — and returns a uniform {!resolution}: terminal
    flags plus typed {!caller} records, each carrying its ready-made
    [Ssg.edge] and a {!bind} describing how residual taints map onto the
    caller.  The slicer's two traversals consume these records generically,
    with no per-strategy match arms.

    Every resolution is recorded once, by {!traced}: one ["resolve"] span
    (the [--trace] and [--profile] surfaces), the metrics, a flight entry
    and the provenance tallies. *)

open Ir

(** Which Sec. IV mechanism answered the query (defined in {!Context}, which
    both this module and [Provenance] index by).  [Icc] is selected by the
    residual {!demand} (Intent-extra residuals at a lifecycle handler), the
    others by {!classify}. *)
type strategy = Context.strategy = Basic | Advanced | Clinit | Lifecycle | Icc

let strategy_to_string = Context.strategy_to_string

(** Classify [callee].  Order matters: [<clinit>] before everything (it is a
    static method but unsearchable); lifecycle handlers before the
    super/interface test (they override framework declarations yet need the
    domain-knowledge search, not object taint).  Never returns [Icc]. *)
let classify program (callee : Jsig.meth) =
  if Jsig.is_clinit callee then Clinit
  else if Lifecycle_search.is_lifecycle_handler program callee then Lifecycle
  else
    match Program.find_method program callee with
    | Some m when Jmethod.is_signature_method m -> Basic
    | Some _ | None ->
      if Program.overrides_foreign_declaration program callee then Advanced
      else Basic

(** Summary of the residual taints at the callee's entry — all the broker
    needs for strategy selection and caller construction (the taint tables
    themselves stay inside the slicer). *)
type demand = {
  has_intent : bool;              (** Intent-extra residuals present *)
  has_this : bool;                (** the receiver object itself is tainted *)
  this_fields : Jsig.field list;  (** tainted fields of the receiver *)
}

(** How the slicer maps residual taints onto a caller record. *)
type bind =
  | Bind_call of { invoke : Expr.invoke; from : int }
      (** ordinary call site: map every residual onto args/receiver, resume
          backward from [from] *)
  | Bind_intent of { intent_local : string; from : int }
      (** ICC launch site: re-key Intent-extra residuals onto the Intent
          local *)
  | Bind_fields
      (** earlier lifecycle handler: map receiver-field residuals onto the
          predecessor's own [this]; resume from its body end *)
  | Bind_async of {
      obj_local : string;
          (** the tracked object's local in the chain-head method *)
      ending : (Jsig.meth * int * Expr.invoke) option;
          (** app-level ending call [(containing method, site, invoke)] for
              parameter residuals; [None] = framework ending *)
    }

(** One resolved caller: the method backtracking continues in, the SSG edge
    to record when the record is accepted, and the taint mapping. *)
type caller = {
  c_meth : Jsig.meth;
  c_edge : Ssg.edge;
  c_bind : bind;
}

(** The broker's uniform answer.  [entry] marks the callee itself as a
    reachable root ([Ssg.add_entry]); [complete] means the flow terminates
    here successfully (reach mode: reachable; dataflow mode: the residuals
    are framework-provided); [callers] are the continuations. *)
type resolution = {
  strategy : strategy;
  entry : bool;
  complete : bool;
  callers : caller list;
}

let resolution ?(entry = false) ?(complete = false) strategy callers =
  { strategy; entry; complete; callers }

(* ------------------------------------------------------------------ *)
(* Strategy runners                                                    *)

let basic_records ctx m =
  List.map
    (fun (cs : Basic_search.call_site) ->
       { c_meth = cs.caller;
         c_edge = Ssg.Call { caller = cs.caller; site = cs.site; callee = m };
         c_bind = Bind_call { invoke = cs.invoke; from = cs.site - 1 } })
    (Basic_search.callers ctx.Context.engine m)

let advanced_records ctx m =
  List.map
    (fun (ac : Object_taint.advanced_caller) ->
       { c_meth = ac.caller;
         c_edge =
           Ssg.Async
             { caller = ac.caller; ctor_site = ac.obj_site;
               ctor_local = ac.obj_local; callee = m; chain = ac.chain;
               ending = ac.ending };
         c_bind =
           Bind_async
             { obj_local = ac.obj_local;
               ending =
                 (match ac.ending_invoke with
                  | Some iv -> Some (ac.ending_in, ac.ending_site, iv)
                  | None -> None) } })
    (Object_taint.advanced_callers ctx.Context.engine ctx.Context.loops m)

let clinit_resolution ctx m =
  let ok, _chain =
    Clinit_search.clinit_reachable ctx.Context.engine ctx.Context.manifest m
  in
  resolution Clinit ~entry:ok ~complete:ok []

let icc_records ctx (m : Jsig.meth) =
  match
    Manifest.App_manifest.find_component ctx.Context.manifest m.Jsig.cls
  with
  | None -> []  (* unregistered component: path invalid *)
  | Some component ->
    List.map
      (fun (site : Icc_search.icc_site) ->
         { c_meth = site.caller;
           c_edge =
             Ssg.Icc { caller = site.caller; site = site.site; handler = m };
           c_bind =
             Bind_intent
               { intent_local = site.intent_local; from = site.site - 1 } })
      (Icc_search.callers ctx.Context.engine ~component)

(* ICC boundary with residual Intent data.  In-app senders continue the
   dataflow; a registered component with {e no} in-app senders is still a
   valid flow endpoint when the manifest exports it — the launching Intent
   then comes from outside the app (the intent-redirection threat model), so
   the path both reaches an entry point and completes there.  Unregistered
   (or unexported, sender-less) components stay dead, exactly as before. *)
let icc_resolution ctx (m : Jsig.meth) =
  match icc_records ctx m with
  | [] ->
    (match
       Manifest.App_manifest.find_component ctx.Context.manifest m.Jsig.cls
     with
     | Some c when c.Manifest.Component.exported ->
       resolution Icc ~entry:true ~complete:true []
     | Some _ | None -> resolution Icc [])
  | records -> resolution Icc records

(** Lifecycle handler carrying residual state (dataflow mode): an entry
    handler completes the flow when the residuals are framework-provided,
    otherwise the earlier handlers of the same component continue it. *)
let lifecycle_resolution ctx (d : demand) (m : Jsig.meth) =
  if not (Manifest.App_manifest.is_entry_class ctx.Context.manifest m.Jsig.cls)
  then resolution Lifecycle []  (* unregistered component: deactivated *)
  else if d.this_fields = [] then
    (* residual params are framework-provided: flow complete *)
    resolution Lifecycle ~entry:true ~complete:true []
  else
    let preds = Lifecycle_search.predecessor_handlers ctx.Context.program m in
    if preds = [] then resolution Lifecycle ~entry:true ~complete:true []
    else
      resolution Lifecycle ~entry:true
        (List.map
           (fun pre ->
              { c_meth = pre;
                c_edge = Ssg.Lifecycle { pre; handler = m };
                c_bind = Bind_fields })
           preds)

(* ------------------------------------------------------------------ *)
(* Recording                                                           *)

(* Resolution counters, one per strategy slot, registered up front so the
   metrics snapshot lists all five even when a strategy never ran. *)
let m_resolutions =
  Array.map
    (fun s -> Obs.Metrics.counter ("resolve." ^ strategy_to_string s))
    Context.strategies

let m_callers = Obs.Metrics.counter "resolve.callers"

(* The one place a resolution is recorded: metrics, provenance tallies, a
   flight entry, the [-v] debug line and one "resolve" span whose name is
   the strategy and whose attributes carry the query, hits and searches.
   The search count is a delta of the calling domain's counters, so a
   concurrent slice's searches never leak into another resolution's
   record, and every field but the latency is equal at any [--jobs]. *)
let traced ctx strategy query f =
  let l0 = Bytesearch.Engine.local_counts () in
  let t0 = Obs.Span.now_us () in
  let r = f () in
  let l1 = Bytesearch.Engine.local_counts () in
  let hits = List.length r.callers in
  let searches = l1.Bytesearch.Cache.lc_total - l0.Bytesearch.Cache.lc_total in
  let idx = Context.strategy_index strategy in
  let name = strategy_to_string strategy in
  Obs.Metrics.incr m_resolutions.(idx);
  Obs.Metrics.add m_callers hits;
  ctx.Context.prov_resolutions.(idx) <-
    ctx.Context.prov_resolutions.(idx) + 1;
  ctx.Context.prov_callers.(idx) <- ctx.Context.prov_callers.(idx) + hits;
  (* flight record: the query string is already retained by the search
     cache, so the ring holds one cons and one tuple per resolution — the
     full numbers live in the span and the provenance ledger, and
     re-retaining them here measurably dents the always-on budget *)
  Obs.Flight.record ~kind:"resolve" ~name
    ~attrs:[ ("query", Obs.Span.Str query) ] ();
  if Obs.Span.enabled () then
    Obs.Span.emit ~cat:"resolve" ~name
      ~attrs:[ ("query", Obs.Span.Str query);
               ("hits", Obs.Span.Int hits);
               ("searches", Obs.Span.Int searches) ]
      t0;
  Log.debug (fun l ->
      l "resolve[%s] %s: %d callers, %d searches, %.1fus" name query hits
        searches (Obs.Span.now_us () -. t0));
  r

let resolve_spans spans =
  List.filter (fun (s : Obs.Span.span) -> s.Obs.Span.cat = "resolve") spans
  |> List.stable_sort (fun (a : Obs.Span.span) b ->
      Float.compare a.Obs.Span.t1_us b.Obs.Span.t1_us)

let trace_json spans =
  let attr k (s : Obs.Span.span) = List.assoc_opt k s.Obs.Span.attrs in
  let int k s =
    match attr k s with Some (Obs.Span.Int n) -> n | _ -> 0
  in
  let spans = resolve_spans spans in
  let b = Buffer.create 1024 in
  Printf.bprintf b "{\"recorded\":%d,\"events\":[" (List.length spans);
  List.iteri
    (fun i (s : Obs.Span.span) ->
       if i > 0 then Buffer.add_char b ',';
       Printf.bprintf b
         "{\"strategy\":\"%s\",\"query\":\"%s\",\"hits\":%d,\
          \"searches\":%d,\"elapsed_us\":%s}"
         (Obs.Jsonf.escape s.Obs.Span.name)
         (Obs.Jsonf.escape
            (match attr "query" s with Some (Obs.Span.Str q) -> q | _ -> ""))
         (int "hits" s) (int "searches" s)
         (Obs.Jsonf.number (Obs.Span.duration_us s)))
    spans;
  Buffer.add_string b "]}";
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* The broker API                                                      *)

(** Resolve the callers of [m].

    Without [demand] the broker answers in *reach mode* — the dataflow is
    already resolved and only control-flow reachability from a registered
    entry point matters (the tail of every empty-residual backtracking
    path, and the recursive step of the sink-API-call cache).

    With [demand] it answers in *dataflow mode* — residual taints must be
    mapped across the boundary, so Intent-extra residuals at a lifecycle
    handler select the two-time ICC search and receiver-field residuals at
    an entry handler select the predecessor-handler search. *)
let callers ?demand ctx (m : Jsig.meth) =
  let program = ctx.Context.program in
  match demand with
  | None ->
    if Lifecycle_search.is_entry program ctx.Context.manifest m then
      traced ctx Lifecycle (Sym.to_string (Jsig.meth_sym m)) (fun () ->
          resolution Lifecycle ~entry:true ~complete:true [])
    else begin
      match classify program m with
      | Lifecycle ->
        (* a lifecycle handler of an unregistered component: deactivated *)
        traced ctx Lifecycle (Sym.to_string (Jsig.meth_sym m)) (fun () ->
            resolution Lifecycle [])
      | Clinit ->
        traced ctx Clinit (Sym.to_string (Sigformat.to_dex_class_sym m.Jsig.cls)) (fun () ->
            clinit_resolution ctx m)
      | Basic ->
        traced ctx Basic (Sym.to_string (Sigformat.to_dex_meth_sym m)) (fun () ->
            resolution Basic (basic_records ctx m))
      | Advanced ->
        traced ctx Advanced (Sym.to_string (Sigformat.to_dex_meth_sym m)) (fun () ->
            resolution Advanced (advanced_records ctx m))
      | Icc -> assert false  (* classify never selects Icc *)
    end
  | Some d ->
    if d.has_intent && Lifecycle_search.is_lifecycle_handler program m then
      (* ICC boundary: the residual data lives in the launching Intent *)
      traced ctx Icc (Sym.to_string (Sigformat.to_dex_class_sym m.Jsig.cls)) (fun () ->
          icc_resolution ctx m)
    else if Lifecycle_search.is_lifecycle_handler program m then
      traced ctx Lifecycle (Sym.to_string (Jsig.meth_sym m)) (fun () ->
          lifecycle_resolution ctx d m)
    else begin
      match classify program m with
      | Clinit ->
        (* no dataflow crosses a <clinit>; only reachability matters, and
           remaining static-field taints resolve off-path *)
        traced ctx Clinit (Sym.to_string (Sigformat.to_dex_class_sym m.Jsig.cls)) (fun () ->
            clinit_resolution ctx m)
      | Basic ->
        traced ctx Basic (Sym.to_string (Sigformat.to_dex_meth_sym m)) (fun () ->
            resolution Basic (basic_records ctx m))
      | Advanced ->
        traced ctx Advanced (Sym.to_string (Sigformat.to_dex_meth_sym m)) (fun () ->
            resolution Advanced (advanced_records ctx m))
      | Lifecycle | Icc -> assert false  (* handled above / never classified *)
    end
