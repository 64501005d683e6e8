(** The caller-resolution broker: the single entry point through which the
    backward slicing answers "who calls / activates this method?".

    {!callers} classifies the callee (absorbing the old [Dispatch] module),
    runs the matching Sec. IV search strategy and returns a uniform
    {!resolution} whose {!caller} records each carry a ready-made
    [Ssg.edge] and a {!bind} describing the residual-taint mapping — so the
    slicer's traversals are generic, with no per-strategy match arms.

    Every resolution is recorded once: one ["resolve"] span named after its
    strategy, with [query], [hits] and [searches] attributes, plus the
    [resolve.*] metrics, a flight entry, the {!Provenance} tallies and a
    debug log line.  [--trace] and [--profile] both read the spans, from
    the one span recorder ([Obs.Span.install_recorder]).  The search count
    comes from the calling domain's own counters, so a concurrent slice
    never leaks into it, and a span carries no search-cache hit/miss split
    (which racing slice pays a shared miss is scheduling): every attribute
    is equal at any [--jobs]. *)

(** Which Sec. IV mechanism answered the query (re-exported from
    {!Context}).  [Icc] is selected by the residual {!demand}, the others by
    {!classify}. *)
type strategy = Context.strategy = Basic | Advanced | Clinit | Lifecycle | Icc

val strategy_to_string : strategy -> string

(** Classify [callee].  Order matters: [<clinit>] before everything (it is a
    static method but unsearchable); lifecycle handlers before the
    super/interface test (they override framework declarations yet need the
    domain-knowledge search, not object taint).  Never returns [Icc]. *)
val classify : Ir.Program.t -> Ir.Jsig.meth -> strategy

(** Summary of the residual taints at the callee's entry — all the broker
    needs for strategy selection and caller construction. *)
type demand = {
  has_intent : bool;
  has_this : bool;
  this_fields : Ir.Jsig.field list;
}

(** How the slicer maps residual taints onto a caller record. *)
type bind =
  | Bind_call of { invoke : Ir.Expr.invoke; from : int }
  | Bind_intent of { intent_local : string; from : int }
  | Bind_fields
  | Bind_async of {
      obj_local : string;
      ending : (Ir.Jsig.meth * int * Ir.Expr.invoke) option;
    }

(** One resolved caller: the method backtracking continues in, the SSG edge
    to record on acceptance, and the taint mapping. *)
type caller = {
  c_meth : Ir.Jsig.meth;
  c_edge : Ssg.edge;
  c_bind : bind;
}

(** The broker's uniform answer.  [entry] marks the callee itself as a
    reachable root; [complete] means the flow terminates here successfully;
    [callers] are the continuations. *)
type resolution = {
  strategy : strategy;
  entry : bool;
  complete : bool;
  callers : caller list;
}

(** Resolve the callers of [m].  Without [demand]: reach mode (control-flow
    reachability only).  With [demand]: dataflow mode — Intent-extra
    residuals at a lifecycle handler select the two-time ICC search,
    receiver-field residuals at an entry handler the predecessor-handler
    search. *)
val callers : ?demand:demand -> Context.t -> Ir.Jsig.meth -> resolution

(** The ["resolve"] spans among [spans], in completion order. *)
val resolve_spans : Obs.Span.span list -> Obs.Span.span list

(** The [--trace] artifact over the resolve spans among [spans]:
    [{"recorded":N,"events":[{strategy,query,hits,searches,elapsed_us},
    ...]}] in completion order, non-finite latencies clamped. *)
val trace_json : Obs.Span.span list -> string
