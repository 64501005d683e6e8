(** The BackDroid driver: the four-step pipeline of Fig. 2.

    1. the app is already preprocessed (IR + disassembled dexdump plaintext);
    2. the initial bytecode search locates the target sink API calls;
    3. backward slicing with on-the-fly bytecode search builds one SSG per
       sink call;
    4. forward constant / points-to propagation over each SSG produces the
       complete dataflow representation of the sink parameters, which the
       rule predicates turn into verdicts.

    Detection is driven by a declarative rule set ({!Rules.Rule.t}): rules
    sharing a sink signature share one bytecode search and one backtracking
    pass, and the verdicts fan out per rule.

    The driver owns the cross-sink caches (search-command cache inside the
    engine; sink-API-call reachability cache) and the loop-detection
    statistics of Sec. IV-F.  It carries no event sink: each caller
    resolution is recorded as a ["resolve"] span (see {!Resolver}), which
    the span recorder ([Obs.Span.install_recorder]) collects for [--trace]
    and [--profile]. *)

module Sinks = Framework.Sinks
type config = {
  rules : Rules.Rule.t list;
      (** the active detection rules; default {!Rules.Builtin.primary}
          (the paper's ECB + SSL misuse classes) *)
  subclass_aware_initial_search : bool;
  resolve_reflection : bool;
  jobs : int;
      (** per-sink parallelism: sink call sites are grouped by containing
          method and the groups analysed on a domain pool of this size
          (1 = sequential, the default).  Findings and statistics are
          identical for any [jobs] value. *)
  budget : Context.budget;
      (** per-sink slicing budget (work/depth caps + optional wall-clock
          deadline); exhaustion surfaces as a [Partial] outcome *)
}
val default_config : config
type sink_report = {
  rule : Rules.Rule.t;      (** the rule this verdict belongs to *)
  sink : Sinks.t;
  meth : Ir.Jsig.meth;
  site : int;
  reachable : bool;
  fact : Facts.t;
  verdict : Detectors.verdict;
  ssg : Ssg.t option;
      (** absent when served from the sink cache; rules sharing a sink spec
          share the same SSG value *)
  outcome : Context.outcome;
      (** [Partial _] when the slice exhausted its budget ([Complete] for
          cache-served reports: no slicing ran) *)
  prov : Provenance.t;
      (** how this verdict was derived: fresh slice (strategy chain, query
          counts, budget spent, SSG size, wall-µs), result-cache replay, or
          sink-cache shortcut; rules sharing a sink spec share the ledger *)
  replayed : Resultcache.entry option;
      (** the persisted entry a replayed verdict came from ([None] unless
          [prov] is [Replayed]); {!export_results} persists it again *)
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
type result = { reports : sink_report list; stats : stats; }

(** A detected issue: an insecure, entry-reachable sink call. *)
val insecure_reports : result -> sink_report list

(** Merge all per-sink SSGs of a result into the per-app SSG (Sec. V-A's
    future-work structure).  A shared SSG (one slice, several rules) is
    folded once. *)
val per_app_ssg : result -> Perapp_ssg.t

(** Step 2: initial bytecode search for the sink API invocations of the
    rule set's distinct sink specs — one search per spec, shared across
    rules; one entry per distinct sink call site.  With
    [subclass_aware_initial_search], invocations through app subclasses of
    the sink class are found as well (each resolves to the same framework
    method, like the DefaultSSLSocketFactory case of Sec. VI-C). *)
val initial_sink_search :
  cfg:config -> Bytesearch.Engine.t -> (Sinks.t * Ir.Jsig.meth * int) list

(** {2 Request-scoped analysis}

    A [session] captures everything resolvable once per app — the search
    engine (snapshot warm start or cold build), the worker pool, the
    persisted-result replay plan (one classmap diff) and the rule set's
    content hash — so a resident
    server can pay setup once and then serve each request with only the
    per-request work: initial search, per-sink-group fan-out, statistics
    merge.  {!analyze} is exactly
    [open_session] → [run_session] → [close_session]. *)

type session

(** Resolve the engine (premade, or built from [dex]), the replay plan
    for [results], and the pool itself ([pool] is borrowed; otherwise a
    fresh pool of [cfg.jobs] is created and owned by the session).  See
    {!analyze} for the argument semantics. *)
val open_session :
  ?cfg:config ->
  ?pool:Parallel.Pool.t ->
  ?engine:Bytesearch.Engine.t ->
  ?results:Resultcache.t ->
  dex:Dex.Dexfile.t -> manifest:Manifest.App_manifest.t -> unit -> session

(** Run one analysis request against the session.  [budget] overrides the
    session config's slicing budget for this request only (per-request
    deadlines from a server's wire protocol).  Safe to call concurrently
    from several threads on one session: the engine's caches are
    thread-safe, the replay plan is read-only, and all other run state is
    per-call — results are identical to a fresh {!analyze}. *)
val run_session : ?budget:Context.budget -> session -> result

(** Shut down the session's pool if the session created it ({!analyze}'s
    no-[pool] path); borrowed pools are left running. *)
val close_session : session -> unit

val session_engine : session -> Bytesearch.Engine.t
val session_config : session -> config
val session_pool : session -> Parallel.Pool.t

(** Analyze one app.  [pool] reuses an existing domain pool for the
    per-sink-group fan-out; without it a fresh pool of [cfg.jobs] is
    created for the call (so [cfg.jobs = 1] is exactly the sequential
    path).  [engine] supplies a premade search engine (a
    snapshot warm start, or a [~indexed:false] scan engine for the grep
    ablation): its dexfile replaces [dex] and no index is built —
    unless [cfg.resolve_reflection] actually rewrites call sites, which
    invalidates any prebuilt index, so the engine is discarded (with a
    logged warning) and the rewritten program is indexed cold.  A premade
    engine last used under a different rule set has its query cache flushed
    (with a warning) first.  Warm and cold runs produce identical
    results.

    [results] supplies a persisted result cache (typically
    {!export_results} of a previous version's run, stored in its
    snapshot): sink call sites whose cached slice footprint is provably
    unaffected by the changes since then — see {!Resultcache} — replay
    their cached reachability and fact without re-slicing (counted in
    [stats.replayed_sinks]; their reports carry [ssg = None]), and
    verdicts are still computed fresh per rule. *)
val analyze :
  ?cfg:config ->
  ?pool:Parallel.Pool.t ->
  ?engine:Bytesearch.Engine.t ->
  ?results:Resultcache.t ->
  dex:Dex.Dexfile.t -> manifest:Manifest.App_manifest.t -> unit -> result

(** Persistable per-sink results of a run: one {!Resultcache.entry} per
    distinct completely-sliced sink call site, and each replayed site's
    entry with the footprint it was replayed under, stamped with [dex]'s
    class-hash table.  Save alongside the snapshot via
    {!Store.Snapshot.save}'s [results] argument: a snapshot saved after a
    replaying warm start carries every result the next version can
    replay. *)
val export_results : dex:Dex.Dexfile.t -> result -> Resultcache.t
