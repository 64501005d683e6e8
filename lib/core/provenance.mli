(** Per-sink provenance ledger: the compact derivation record every sink
    report carries — queries issued per category, resolver strategies taken
    with caller counts, budget spent vs cap, replay status, SSG size and
    wall-clock cost.  Rendered by [analyze --explain].

    Every field but [p_wall_us] is a fact about the derivation, so a whole
    ledger with its wall time zeroed is equal for the same app and rules,
    whether its run ran alone or beside others on the same session (a
    daemon's concurrent requests).  It carries no search-cache hit/miss
    split: which of two racing slices pays the one miss per distinct query
    is scheduling, so that split is reported engine-wide only (the
    [stats:] line, [search.cache.{hits,misses}]). *)

type source =
  | Fresh                 (** computed by a backward slice in this run *)
  | Replayed              (** served from the persisted result cache *)
  | Sink_cache            (** Sec. IV-F sink-API reachability shortcut *)

val source_to_string : source -> string

type t = {
  p_source : source;
  p_strategies : (string * int * int) list;
      (** (strategy, resolutions, callers found), non-zero only *)
  p_searches : int;
  p_categories : (string * int) list;  (** queries per category, non-zero *)
  p_work : int;
  p_max_work : int;
  p_depth_limit : int;
  p_deadline_ms : float option;
  p_ssg_nodes : int;
  p_ssg_edges : int;
  p_wall_us : float;
      (** 0. for non-fresh sources; the one field that varies run to run *)
}

(** Ledger of a verdict replayed from the persisted result cache. *)
val replayed : budget:Context.budget -> t

(** Ledger of a verdict served by the sink-API reachability shortcut. *)
val sink_cache_served : budget:Context.budget -> t

(** Ledger of a freshly sliced sink: drains [ctx]'s accumulators and deltas
    the domain-local search counters against the slice-start snapshot. *)
val fresh_of : Context.t -> wall_us:float -> t

(** Multi-line rendering for [analyze --explain]; [timing:false] omits the
    wall-clock line (stable across runs). *)
val render : ?timing:bool -> t -> string
