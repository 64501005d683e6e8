(** The BackDroid driver: the four-step pipeline of Fig. 2.

    1. the app is already preprocessed (IR + disassembled dexdump plaintext);
    2. the initial bytecode search locates the target sink API calls;
    3. backward slicing with on-the-fly bytecode search builds one SSG per
       sink call;
    4. forward constant / points-to propagation over each SSG produces the
       complete dataflow representation of the sink parameters, which the
       rule predicates turn into verdicts.

    Detection is driven by a declarative rule set ({!Rules.Rule.t}).  Rules
    are grouped by shared sink signature before the initial search, so a
    multi-rule run pays one bytecode search and one slicing/SSG backtracking
    pass per distinct sink spec and fans the verdicts out per rule — the
    slicer pass count scales with sink groups, not with rule count.

    The driver owns the cross-sink caches (search-command cache inside the
    engine; sink-API-call reachability cache) and the loop-detection
    statistics of Sec. IV-F. *)

open Ir
module Sinks = Framework.Sinks
module Classmap = Dex.Classmap

type config = {
  rules : Rules.Rule.t list;
      (** the active detection rules; default {!Rules.Builtin.primary}
          (the paper's ECB + SSL misuse classes) *)
  subclass_aware_initial_search : bool;
      (** also search sink invocations through app subclasses of the sink
          class — the fix for the two FNs of Sec. VI-C (off by default to
          reproduce the paper's behaviour; flip for the ablation) *)
  resolve_reflection : bool;
      (** de-reflect constant Class.forName/getMethod/invoke triples before
          the analysis (the Sec. VII extension; off by default) *)
  budget : Context.budget;
      (** per-sink slicing budget (work/depth caps + optional wall-clock
          deadline); exhaustion surfaces as a [Partial] outcome in the
          report *)
}

let default_config =
  { rules = Rules.Builtin.primary;
    subclass_aware_initial_search = false;
    resolve_reflection = false;
    budget = Context.default_budget }

type sink_report = {
  rule : Rules.Rule.t;      (** the rule this verdict belongs to *)
  sink : Sinks.t;
  meth : Jsig.meth;         (** method containing the sink call *)
  site : int;
  reachable : bool;
  fact : Facts.t;
  verdict : Detectors.verdict;
  ssg : Ssg.t option;       (** absent when served from the sink cache *)
  outcome : Context.outcome;
      (** [Partial _] when the slice exhausted its budget ([Complete] for
          cache-served reports: no slicing ran) *)
  prov : Provenance.t;
      (** how this verdict was derived: fresh slice (with strategy chain,
          query counts, budget spent), result-cache replay, or sink-cache
          shortcut *)
  replayed : Resultcache.entry option;
      (** the persisted entry a replayed verdict came from *)
}

type stats = {
  sink_calls : int;
      (** distinct sink call sites — one backtracking pass each, however
          many rules share the site's sink spec *)
  searches_total : int;
  searches_cached : int;
  search_cache_rate : float;
  sink_cache_lookups : int;
  sink_cache_hits : int;
  loops : Loopdetect.stats;
  ssg_nodes : int;
  ssg_edges : int;
  partial_sinks : int;
      (** sink slices that exhausted their budget (typed [Partial]) *)
  replayed_sinks : int;
      (** sink call sites served from a persisted result cache (no slicing
          ran); 0 unless [analyze] was given [results] *)
  index_categories_built : int;
      (** postings categories the engine built (0-7); lazy mode builds only
          the categories the analysis actually queried *)
  resolutions : int;
      (** caller resolutions taken by fresh slices (all strategies) *)
  resolved_callers : int;
      (** callers those resolutions produced *)
  work_spent : int;
      (** work items spent by fresh slices (sum over sinks) *)
}

type result = {
  reports : sink_report list;
  stats : stats;
  manifest : Manifest.App_manifest.t;
}

(** A detected issue: an insecure, entry-reachable sink call. *)
let insecure_reports r =
  List.filter (fun rep -> rep.reachable && rep.verdict = Detectors.Insecure)
    r.reports

(** Merge all per-sink SSGs of a result into the per-app SSG (Sec. V-A's
    future-work structure).  A shared SSG (one slice, several rules) is
    folded once. *)
let per_app_ssg r =
  let seen = Hashtbl.create 16 in
  let ssgs =
    List.filter_map
      (fun rep ->
         match rep.ssg with
         | Some ssg when not (Hashtbl.mem seen (Obj.repr ssg)) ->
           Hashtbl.replace seen (Obj.repr ssg) ();
           Some ssg
         | Some _ | None -> None)
      r.reports
  in
  Perapp_ssg.merge ssgs

(* ------------------------------------------------------------------ *)

(* One shared backtracking unit: a distinct sink spec (signature +
   argument-of-interest) plus every rule that targets it.  Built once per
   config; order follows first rule mention, so the default set searches in
   the same order the hard-coded sink list used to. *)
type sink_group = {
  sg_sink : Sinks.t;
  sg_rules : Rules.Rule.t list;
}

let sink_groups rules =
  let tbl = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun (r : Rules.Rule.t) ->
       List.iter
         (fun (s : Sinks.t) ->
            let key = (Sym.id (Jsig.meth_sym s.Sinks.msig), s.Sinks.param_index) in
            match Hashtbl.find_opt tbl key with
            | Some (_, cell) -> cell := r :: !cell
            | None ->
              let cell = ref [ r ] in
              Hashtbl.replace tbl key (s, cell);
              order := key :: !order)
         r.Rules.Rule.sinks)
    rules;
  List.rev_map
    (fun key ->
       let s, cell = Hashtbl.find tbl key in
       { sg_sink = s; sg_rules = List.rev !cell })
    !order

(** Step 2: initial bytecode search for the sink API invocations of every
    rule's sink specs — one search per distinct spec, shared across rules.
    With [subclass_aware_initial_search], invocations through app subclasses
    of the sink class are found as well (each resolves to the same framework
    method, like the DefaultSSLSocketFactory case of Sec. VI-C). *)
let initial_group_search ~cfg engine =
  let program = Bytesearch.Engine.program engine in
  let occ = ref [] in
  let seen = Hashtbl.create 16 in
  let search (sg : sink_group) (msig : Jsig.meth) =
    let hits =
      Bytesearch.Engine.run engine
        (Bytesearch.Query.invocation_sym (Sigformat.to_dex_meth_sym msig))
    in
    List.iter
      (fun (h : Bytesearch.Engine.hit) ->
         match h.stmt_idx with
         | Some idx ->
           let key = (Sym.id (Jsig.meth_sym h.owner), idx) in
           if not (Hashtbl.mem seen key) then begin
             Hashtbl.replace seen key ();
             occ := (sg, h.owner, idx) :: !occ
           end
         | None -> ())
      hits
  in
  List.iter
    (fun (sg : sink_group) ->
       let sink = sg.sg_sink in
       search sg sink.Sinks.msig;
       if cfg.subclass_aware_initial_search then
         List.iter
           (fun sub ->
              match Program.find_class program sub with
              | Some c when not c.Jclass.is_system ->
                search sg { sink.Sinks.msig with Jsig.cls = sub }
              | Some _ | None -> ())
           (Program.subclasses_transitive program sink.Sinks.msig.Jsig.cls))
    (sink_groups cfg.rules);
  List.rev !occ

(** Sink-centric view of {!initial_group_search} (one entry per distinct
    sink call site). *)
let initial_sink_search ~cfg engine =
  List.map (fun (sg, meth, idx) -> (sg.sg_sink, meth, idx))
    (initial_group_search ~cfg engine)

(* The unit of analysis: all sink call sites sharing one containing
   method.  The sink-API-call cache of Sec. IV-F is keyed by the containing
   method, so all its lookups for a group stay inside the group, and each
   group slices with its own method-reachability memo.  Every group of a
   run bumps the run's one [tally] and records into its one loop-statistics
   record, so a run's statistics do not depend on what other runs of the
   session do at the same time. *)
type tally = {
  mutable n_lookups : int;     (* sink-API-call cache lookups *)
  mutable n_hits : int;        (* ... served by the cache *)
  mutable n_nodes : int;       (* SSG nodes *)
  mutable n_edges : int;       (* SSG edges *)
  mutable n_partial : int;     (* slices that exhausted their budget *)
  mutable n_replayed : int;    (* sites replayed from persisted results *)
  mutable n_resolutions : int; (* caller resolutions of fresh slices *)
  mutable n_callers : int;     (* callers they produced *)
  mutable n_work : int;        (* work items fresh slices spent *)
}

let tally () =
  { n_lookups = 0; n_hits = 0; n_nodes = 0; n_edges = 0; n_partial = 0;
    n_replayed = 0; n_resolutions = 0; n_callers = 0; n_work = 0 }

(* Group occurrences by containing method, preserving first-occurrence order
   across groups and occurrence order within each group. *)
let group_by_method occurrences =
  let tbl = Hashtbl.create 16 in
  let order = ref [] in
  List.iteri
    (fun i ((_, meth, _) as occ) ->
       let key = Sym.id (Jsig.meth_sym meth) in
       match Hashtbl.find_opt tbl key with
       | Some cell -> cell := (i, occ) :: !cell
       | None ->
         let cell = ref [ (i, occ) ] in
         Hashtbl.replace tbl key cell;
         order := key :: !order)
    occurrences;
  List.rev_map (fun key -> List.rev !(Hashtbl.find tbl key)) !order

let m_sink_calls = Obs.Metrics.counter "driver.sink_calls"
let m_ssg_nodes = Obs.Metrics.counter "driver.ssg_nodes"
let m_ssg_edges = Obs.Metrics.counter "driver.ssg_edges"
let m_sink_cache_lookups = Obs.Metrics.counter "driver.sink_cache.lookups"
let m_sink_cache_hits = Obs.Metrics.counter "driver.sink_cache.hits"

let analyze_group ~cfg ~engine ~manifest ~loops ~(n : tally) ?replay group =
  Obs.Span.with_span ~cat:"analyze" ~name:"sink-group"
    ~attrs:[ ("sites", Obs.Span.Int (List.length group)) ]
  @@ fun () ->
  let shared = Context.shared ~loops ~engine ~manifest () in
  let program = shared.Context.program in
  (* the group's slot in the sink-API-call cache (one key per group) *)
  let known_reachable = ref None in
  List.concat_map
    (fun (i, ((sg : sink_group), meth, site)) ->
       let sink = sg.sg_sink in
       (* one verdict per rule sharing this sink spec; every verdict of
          the fan-out shares the site's one derivation ledger *)
       let fan_out ~reachable ~fact ~ssg ~outcome ~prov ~replayed =
         List.mapi
           (fun j rule ->
              let verdict =
                if reachable then Detectors.classify_rule program rule fact
                else Detectors.Unresolved
              in
              ( (i, j),
                { rule; sink; meth; site; reachable; fact; verdict; ssg;
                  outcome; prov; replayed } ))
           sg.sg_rules
       in
       (* persisted-result replay: serve the cached fact when the site's
          whole slice footprint is provably unaffected by the changes
          since the cache was produced; the verdicts are still computed
          fresh per rule, so a rule-set change replays correctly *)
       let replayed_entry =
         match replay with
         | None -> None
         | Some pl ->
           Resultcache.lookup pl
             ~sink_msig:(Jsig.meth_to_string sink.Sinks.msig)
             ~param_index:sink.Sinks.param_index
             ~meth:(Jsig.meth_to_string meth) ~site
       in
       match replayed_entry with
       | Some e ->
         n.n_replayed <- n.n_replayed + 1;
         (* reachability of this containing method is now known, so
            later sink sites in the group shortcut exactly as they
            would after a real slice *)
         known_reachable := Some e.Resultcache.e_reachable;
         Log.info (fun m ->
             m "replaying cached result for %s sink at %s:%d"
               sink.Sinks.name (Jsig.meth_to_string meth) site);
         fan_out ~reachable:e.Resultcache.e_reachable
           ~fact:e.Resultcache.e_fact ~ssg:None ~outcome:Context.Complete
           ~prov:(Provenance.replayed ~budget:cfg.budget)
           ~replayed:(Some e)
       | None ->
       n.n_lookups <- n.n_lookups + 1;
       match !known_reachable with
       | Some false ->
         (* Sec. IV-F: this method is known unreachable; skip re-analysis *)
         n.n_hits <- n.n_hits + 1;
         fan_out ~reachable:false ~fact:Facts.Unknown ~ssg:None
           ~outcome:Context.Complete
           ~prov:(Provenance.sink_cache_served ~budget:cfg.budget)
           ~replayed:None
       | Some true | None ->
         if !known_reachable <> None then n.n_hits <- n.n_hits + 1;
         Log.info (fun m ->
             m "backtracking %s sink at %s:%d" sink.Sinks.name
               (Jsig.meth_to_string meth) site);
         let ssg, outcome, prov =
           Slicer.slice_full ~shared ~budget:cfg.budget ~sink
             ~sink_meth:meth ~sink_site:site ()
         in
         List.iter
           (fun (_, r, c) ->
              n.n_resolutions <- n.n_resolutions + r;
              n.n_callers <- n.n_callers + c)
           prov.Provenance.p_strategies;
         n.n_work <- n.n_work + prov.Provenance.p_work;
         (match outcome with
          | Context.Partial _ ->
            n.n_partial <- n.n_partial + 1;
            Log.warn (fun m ->
                m "sink at %s:%d: budget exhausted (%s)"
                  (Jsig.meth_to_string meth) site
                  (Context.outcome_to_string outcome))
          | Context.Complete -> ());
         known_reachable := Some ssg.Ssg.reachable;
         n.n_nodes <- n.n_nodes + Ssg.node_count ssg;
         n.n_edges <- n.n_edges + Ssg.edge_count ssg;
         let fact =
           if ssg.Ssg.reachable then Forward.run program ssg
           else Facts.Unknown
         in
         Log.info (fun m ->
             m "sink at %s:%d: reachable=%b fact=%s (%d rule(s))"
               (Jsig.meth_to_string meth) site ssg.Ssg.reachable
               (Facts.to_string fact) (List.length sg.sg_rules));
         fan_out ~reachable:ssg.Ssg.reachable ~fact ~ssg:(Some ssg)
           ~outcome ~prov ~replayed:None)
  group

(* ------------------------------------------------------------------ *)
(* Request-scoped analysis: a [session] captures everything that can be
   resolved once and shared across repeated runs against the same app —
   the engine (snapshot warm start or cold build) and the persisted-result
   replay plan (one classmap diff, not one per request).  [run_session]
   then only pays the per-request work: initial search and the sink
   groups, in order, on the calling domain.  A session is safe to run
   from several domains at once (the daemon's workers do): the engine's
   caches are thread-safe, the replay plan is read-only, and all other
   run state is per-call. *)

type session = {
  s_cfg : config;
  s_engine : Bytesearch.Engine.t;
  s_manifest : Manifest.App_manifest.t;
  s_replay : Resultcache.plan option;
  s_ruleset_hash : int;
      (* of [s_cfg.rules]: a request's budget cannot change the rules *)
}

let open_session ?(cfg = default_config) ?engine ?results
    ~(dex : Dex.Dexfile.t) ~(manifest : Manifest.App_manifest.t) () =
  let premade = ref engine in
  let dex =
    match engine with
    | Some e -> Bytesearch.Engine.dexfile e
    | None -> dex
  in
  let dex =
    if cfg.resolve_reflection then
      Obs.Span.with_span ~cat:"app" ~name:"reflection" (fun () ->
          let program', rewrites =
            Reflection.transform dex.Dex.Dexfile.program
          in
          if rewrites = 0 then dex
          else begin
            (match !premade with
             | Some _ ->
               Log.warn (fun m ->
                   m "reflection rewrote %d sites; discarding preloaded \
                      index, rebuilding cold" rewrites);
               Obs.Flight.anomaly ~kind:"snapshot"
                 ~name:"reflection-discarded-index"
                 ~attrs:[ ("rewrites", Obs.Span.Int rewrites) ] ();
               premade := None
             | None -> ());
            Dex.Dexfile.of_program program'
          end)
    else dex
  in
  let engine =
    match !premade with
    | Some e -> e
    | None ->
      Obs.Span.with_span ~cat:"app" ~name:"engine-create" (fun () ->
          Bytesearch.Engine.create dex)
  in
  (* diff the persisted result cache (if any) against this build's
     classmap once; every run of the session consults the precomputed
     plan *)
  let replay =
    match results with
    | None -> None
    | Some rc ->
      Some
        (Resultcache.plan rc ~dex:(Bytesearch.Engine.dexfile engine) ~manifest)
  in
  { s_cfg = cfg; s_engine = engine; s_manifest = manifest; s_replay = replay;
    s_ruleset_hash = Rules.Rule.hash_list cfg.rules }

let session_engine s = s.s_engine

let run_session ?budget s =
  Obs.Span.with_span ~cat:"app" ~name:"analyze" @@ fun () ->
  let cfg =
    match budget with
    | None -> s.s_cfg
    | Some budget -> { s.s_cfg with budget }
  in
  let engine = s.s_engine and manifest = s.s_manifest in
  let replay = s.s_replay in
  (* the run's own searches: it issues them all on this domain *)
  let l0 = Bytesearch.Engine.local_counts () in
  (match Bytesearch.Engine.note_ruleset engine s.s_ruleset_hash with
   | `Changed ->
     Log.warn (fun m ->
         m "rule set changed since this engine was last used; flushed the \
            search cache");
     Obs.Flight.anomaly ~kind:"snapshot" ~name:"ruleset-changed" ()
   | `First | `Same -> ());
  let occurrences =
    Obs.Span.with_span ~cat:"app" ~name:"initial-search" (fun () ->
        initial_group_search ~cfg engine)
  in
  let loops = Loopdetect.create () and n = tally () in
  (* reports are keyed (occurrence index, rule index): occurrence-major *)
  let reports =
    group_by_method occurrences
    |> List.concat_map
      (analyze_group ~cfg ~engine ~manifest ~loops ~n ?replay)
    |> List.sort (fun (a, _) (b, _) -> compare (a : int * int) b)
    |> List.map snd
  in
  let l1 = Bytesearch.Engine.local_counts () in
  let searches_total =
    l1.Bytesearch.Cache.lc_total - l0.Bytesearch.Cache.lc_total
  and searches_cached =
    l1.Bytesearch.Cache.lc_cached - l0.Bytesearch.Cache.lc_cached
  in
  let stats =
    { sink_calls = List.length occurrences;
      searches_total;
      searches_cached;
      search_cache_rate =
        (if searches_total = 0 then 0.0
         else float_of_int searches_cached /. float_of_int searches_total);
      sink_cache_lookups = n.n_lookups;
      sink_cache_hits = n.n_hits;
      loops;
      ssg_nodes = n.n_nodes;
      ssg_edges = n.n_edges;
      partial_sinks = n.n_partial;
      replayed_sinks = n.n_replayed;
      index_categories_built = Bytesearch.Engine.built_categories engine;
      resolutions = n.n_resolutions;
      resolved_callers = n.n_callers;
      work_spent = n.n_work }
  in
  Obs.Metrics.add m_sink_calls stats.sink_calls;
  Obs.Metrics.add m_ssg_nodes stats.ssg_nodes;
  Obs.Metrics.add m_ssg_edges stats.ssg_edges;
  Obs.Metrics.add m_sink_cache_lookups stats.sink_cache_lookups;
  Obs.Metrics.add m_sink_cache_hits stats.sink_cache_hits;
  (* one batched flight event carrying every driver.* end-of-run counter
     (a single ring push; the trace exporter explodes the attributes into
     per-name Chrome 'C' counter tracks) *)
  Obs.Flight.record ~kind:"counters" ~name:"driver"
    ~attrs:[ ("driver.sink_calls", Obs.Span.Int stats.sink_calls);
             ("driver.ssg_nodes", Obs.Span.Int stats.ssg_nodes);
             ("driver.ssg_edges", Obs.Span.Int stats.ssg_edges);
             ("driver.sink_cache.lookups",
              Obs.Span.Int stats.sink_cache_lookups);
             ("driver.sink_cache.hits", Obs.Span.Int stats.sink_cache_hits);
             ("driver.partial_sinks", Obs.Span.Int stats.partial_sinks);
             ("driver.replayed_sinks", Obs.Span.Int stats.replayed_sinks);
             ("driver.resolutions", Obs.Span.Int stats.resolutions);
             ("driver.work_spent", Obs.Span.Int stats.work_spent) ]
    ();
  { reports; stats; manifest }

(** Analyze one app: a transient session.  [engine] is a premade engine
    (a snapshot warm start); its dexfile takes the place of [dex] — unless
    the reflection transform rewrites call sites, which invalidates any
    prebuilt index, so the engine is discarded (with a warning) and the
    rewritten program is indexed cold.  A premade engine last used under a
    {e different} rule set has its query cache flushed (with a warning)
    before this run's searches — cached search state never crosses rule
    sets silently. *)
let analyze ?cfg ?engine ?results ~(dex : Dex.Dexfile.t)
    ~(manifest : Manifest.App_manifest.t) () =
  run_session (open_session ?cfg ?engine ?results ~dex ~manifest ())

(* ------------------------------------------------------------------ *)

(* The app classes an SSG slice touched, each with its IR hash folded with
   the manifest's digest: every method the backtracking visited
   (nodes, edge endpoints, entries, static track) plus the global
   static-taint fields' classes.  Restricted to classes in the dexfile's
   classmap — framework classes don't version with the app. *)
let ssg_footprint ~class_hash (ssg : Ssg.t) sink_meth =
  let seen = Hashtbl.create 16 in
  let add cls =
    match class_hash cls with
    | Some h -> Hashtbl.replace seen cls h
    | None -> ()
  in
  let addm (m : Jsig.meth) = add m.Jsig.cls in
  addm sink_meth;
  List.iter (fun (n : Ssg.unit_) -> addm n.Ssg.meth) ssg.Ssg.nodes;
  List.iter
    (fun (e : Ssg.edge) ->
       match e with
       | Ssg.Call { caller; callee; _ } | Ssg.Contained { caller; callee; _ }
         ->
         addm caller;
         addm callee
       | Ssg.Async { caller; callee; chain; ending; _ } ->
         addm caller;
         addm callee;
         addm ending;
         List.iter (fun (m, _) -> addm m) chain
       | Ssg.Icc { caller; handler; _ } ->
         addm caller;
         addm handler
       | Ssg.Lifecycle { pre; handler } ->
         addm pre;
         addm handler)
    ssg.Ssg.edges;
  List.iter addm ssg.Ssg.entry_methods;
  List.iter addm ssg.Ssg.static_track;
  List.iter (fun (f : Jsig.field) -> add f.Jsig.fcls)
    ssg.Ssg.global_static_taints;
  Hashtbl.fold (fun c h acc -> (c, h) :: acc) seen []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(** Persistable per-sink results of [result]: one cache entry per distinct
    sink call site whose slice ran to completion in this run, its
    footprint hashed by [dex]'s class map and the run's manifest, plus the
    entry of each replayed site as it was replayed (every footprint class
    is unchanged, so its hashes are [dex]'s too).  Sink-cache-served sites carry neither and
    are skipped.  Keyed for {!Resultcache.lookup}. *)
let export_results ~(dex : Dex.Dexfile.t) result =
  let class_hash =
    Resultcache.class_hash ~classmap:(Dex.Dexfile.classmap dex)
      ~manifest:result.manifest
  in
  let seen = Hashtbl.create 16 in
  let entries =
    List.filter_map
      (fun r ->
         let e_sink_msig = Jsig.meth_to_string r.sink.Sinks.msig in
         let e_meth = Jsig.meth_to_string r.meth in
         let key =
           Printf.sprintf "%s|%d|%s|%d" e_sink_msig r.sink.Sinks.param_index
             e_meth r.site
         in
         if Hashtbl.mem seen key then None
         else begin
           Hashtbl.replace seen key ();
           match (r.replayed, r.ssg, r.outcome) with
           | Some e, _, _ -> Some e
           | None, Some ssg, Context.Complete ->
             Some
               { Resultcache.e_sink_msig;
                 e_param_index = r.sink.Sinks.param_index;
                 e_meth; e_site = r.site; e_reachable = r.reachable;
                 e_fact = r.fact;
                 e_footprint = ssg_footprint ~class_hash ssg r.meth }
           | None, Some _, Context.Partial _ | None, None, _ -> None
         end)
      result.reports
  in
  Resultcache.build entries
