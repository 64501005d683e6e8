(** The analysis context: the app-wide state one sink group shares
    ({!shared}) plus the per-sink slicing state ({!t}) with its typed
    {!budget} and {!outcome}, and the caller-resolution {!strategy}
    enumeration that [Resolver] and [Provenance] both index by.

    The budget supersedes the slicer's bare [max_work]/[max_depth] ints: it
    adds an optional wall-clock deadline, and exhausting any limit yields a
    typed [Partial] outcome that names the limits hit, instead of silent
    truncation. *)

type budget = {
  max_depth : int;            (** inter-procedural backtracking depth *)
  max_work : int;             (** total work items per sink *)
  max_contained_depth : int;  (** contained-method sub-slice recursion *)
  time_limit_ms : float option;
      (** wall-clock deadline per sink slice; [None] = unbounded *)
}

val default_budget : budget

type exhaustion = Work | Depth | Deadline

val exhaustion_to_string : exhaustion -> string

type outcome = Complete | Partial of exhaustion list

val outcome_to_string : outcome -> string

(** Which Sec. IV mechanism answered a caller query (re-exported as
    [Resolver.strategy]). *)
type strategy = Basic | Advanced | Clinit | Lifecycle | Icc

(** Every strategy, in slot order. *)
val strategies : strategy array

val strategy_to_string : strategy -> string

(** Dense slot of a strategy in {!strategies}: the index into
    [prov_resolutions] / [prov_callers]. *)
val strategy_index : strategy -> int

(** App-wide state shared by every sink slice of one group: engine,
    program/manifest spaces, the group's sink-API-call reachability cache
    (Sec. IV-F) and the dead-loop statistics, which every group of a run
    records into ([loops], fresh unless given). *)
type shared = {
  engine : Bytesearch.Engine.t;
  program : Ir.Program.t;
  manifest : Manifest.App_manifest.t;
  loops : Loopdetect.stats;
  reach_cache : (int, bool) Hashtbl.t;  (* keyed by [Sym.id (Jsig.meth_sym m)] *)
}

val shared :
  ?loops:Loopdetect.stats ->
  engine:Bytesearch.Engine.t ->
  manifest:Manifest.App_manifest.t -> unit -> shared

(** One sink slice's context: the shared state plus the SSG under
    construction and the budget accounting. *)
type t = {
  engine : Bytesearch.Engine.t;
  program : Ir.Program.t;
  manifest : Manifest.App_manifest.t;
  loops : Loopdetect.stats;
  reach_cache : (int, bool) Hashtbl.t;  (* keyed by [Sym.id (Jsig.meth_sym m)] *)
  budget : budget;
  ssg : Ssg.t;
  started_at : float;
  mutable work_count : int;
  mutable exhausted : exhaustion list;
  (* provenance accumulators (see {!Provenance}): per-strategy resolution
     and caller counts in {!strategy_index} slots, plus the creating
     domain's query-issue counters at slice start *)
  prov_resolutions : int array;
  prov_callers : int array;
  prov_searches0 : Bytesearch.Cache.local_counts;
}

val create : ?budget:budget -> shared -> ssg:Ssg.t -> t

(** Record that [kind]'s limit was hit (idempotent). *)
val exhaust : t -> exhaustion -> unit

(** Has the deadline already been detected?  (No clock read.) *)
val deadline_hit : t -> bool

(** Has the slice's wall-clock deadline passed?  Free when no time limit is
    set; records the [Deadline] exhaustion on first detection. *)
val out_of_time : t -> bool

(** The typed result of the slice: [Complete], or [Partial limits] with the
    limits in the order they were first hit. *)
val outcome : t -> outcome
