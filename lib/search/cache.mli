(** Search-command caching (implementation enhancement 1, Sec. IV-F).

    Keys are the typed queries themselves — symbol payloads make query
    hashing and equality integer operations, so a cache probe renders no
    command string.  Each lookup is counted on the calling domain
    ({!local_counts}), whose deltas around a run give the cache rate the
    paper reports (average 23.39%, min 2.97%, max 88.95%).

    The cache is safe under concurrent use from multiple domains: its
    results are a keyed {!Parallel.Once} table, so a miss computes with no
    lock held, while a domain that asks for the same key meanwhile waits
    for that compute and counts a hit.  Each distinct key is computed
    exactly once, so the lookups of all domains hold one miss per
    distinct key.  The compute must not ask the cache for its own key. *)

type 'hit t

val create : unit -> 'a t

(** Look up or compute the result of [query], recording statistics.  A
    key's first lookup computes, every other lookup (from any domain) is a
    cache hit; a lookup of another key never waits for that compute.  A
    compute that raises caches nothing and counts no search. *)
val find_or_add : 'a t -> Query.t -> (unit -> 'a list) -> 'a list

(** Drop every cached result; the compute costs are kept (they describe
    work actually performed).  Used when the rule set driving the searches
    changes under a reused engine. *)
val flush : 'a t -> unit

(** Per-category accumulated compute cost, in category order: µs spent
    computing this category's cache misses (hits cost nothing). *)
val category_timings : 'a t -> (Query.category * float) list

(** Cumulative lookups by the {e calling domain}, across every cache
    instance it touched.  A slice, and a whole analysis run, issues its
    queries on one domain, so deltas of these counters around it count
    its own lookups only, however many runs share the engine.  The issue
    counts are scheduling-independent; [lc_cached] is not when runs share
    an engine at once, since which run pays the one miss per distinct key
    depends on scheduling. *)
type local_counts = {
  lc_total : int;
  lc_cached : int;         (** of [lc_total], served from the cache *)
  lc_by_cat : int array;   (** per {!Query.category_index} *)
}

val local_counts : unit -> local_counts
