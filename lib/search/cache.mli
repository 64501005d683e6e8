(** Search-command caching (implementation enhancement 1, Sec. IV-F).

    Keys are the typed queries themselves — symbol payloads make query
    hashing and equality integer operations, so a cache probe renders no
    command string.  The cache also keeps the per-category and aggregate
    counters the paper reports (average cache rate 23.39%, min 2.97%, max
    88.95%).

    The cache is safe under concurrent use from multiple domains: its
    results are a keyed {!Parallel.Once} table, so a miss computes with no
    lock held, while a domain that asks for the same key meanwhile waits
    for that compute and counts a hit.  Each distinct key is computed
    exactly once and the hit/miss totals are independent of scheduling.
    The compute must not ask the cache for its own key. *)

type 'hit t

val create : unit -> 'a t

(** Look up or compute the result of [query], recording statistics.  A
    key's first lookup computes, every other lookup (from any domain) is a
    cache hit; a lookup of another key never waits for that compute.  A
    compute that raises caches nothing and counts no search. *)
val find_or_add : 'a t -> Query.t -> (unit -> 'a list) -> 'a list

(** Drop every cached result; the statistics counters are kept (they
    describe work actually performed).  Used when the rule set driving the
    searches changes under a reused engine. *)
val flush : 'a t -> unit

(** Fraction of search commands served from cache, in [0, 1]. *)
val cache_rate : 'a t -> float

val total_searches : 'a t -> int
val cached_searches : 'a t -> int
val category_stats : 'a t -> (Query.category * int * int) list

(** Per-category accumulated compute cost: µs spent computing this
    category's cache misses (hits cost nothing). *)
val category_timings : 'a t -> (Query.category * float) list

(** Cumulative queries issued by the {e calling domain}, across every cache
    instance it touched.  A slice runs entirely on one domain, so deltas of
    these counters around it are scheduling-independent — except
    [lc_cached]: which slice pays the one miss per distinct key depends on
    scheduling, so cached counts are informational only. *)
type local_counts = {
  lc_total : int;
  lc_cached : int;
  lc_by_cat : int array;   (** per {!Query.category_index} *)
}

val local_counts : unit -> local_counts
