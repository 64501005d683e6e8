(** The adjusted backward slicing (Sec. V-A): starting at a sink API call,
    taint the security-relevant parameter and scan method bodies backwards,
    crossing method boundaries through the bytecode searches of Sec. IV and
    recording every visited statement and inter-procedural relationship into
    the SSG.

    Taints cover locals, instance fields (tainting the class object along
    with the field, so aliases and method boundaries are survived), Intent
    extras (keyed like fields) and static fields (a global set).  Contained
    methods — constructors writing tainted fields, and calls whose return
    value is tainted — are analysed by recursive sub-slices whose residual
    taints are mapped back to the call site.

    Caller queries go through the {!Resolver} broker; state, caches and the
    per-sink budget live in the {!Context}. *)

(** Slice one sink API call occurrence, producing its SSG and the typed
    budget outcome.  [shared] carries the app-wide state of the sink group —
    the engine, the sink-API-call reachability cache with its counters
    (Sec. IV-F) and the loop statistics; [budget] (default
    {!Context.default_budget}) bounds this one slice, and exhausting it
    yields a [Partial] outcome instead of silent truncation. *)
val slice :
  shared:Context.shared ->
  ?budget:Context.budget ->
  sink:Framework.Sinks.t ->
  sink_meth:Ir.Jsig.meth ->
  sink_site:int ->
  unit ->
  Ssg.t * Context.outcome

(** {!slice} plus the {!Provenance} ledger of the derivation (queries per
    category, strategies taken, budget spent, SSG size, wall-µs). *)
val slice_full :
  shared:Context.shared ->
  ?budget:Context.budget ->
  sink:Framework.Sinks.t ->
  sink_meth:Ir.Jsig.meth ->
  sink_site:int ->
  unit ->
  Ssg.t * Context.outcome * Provenance.t
