(** Search-command caching (implementation enhancement 1, Sec. IV-F).

    The results are a keyed {!Parallel.Once} table: a miss computes with no
    lock held, and a domain racing on the same key waits for that compute
    and counts a hit, so each distinct key is one miss.  Queries are
    counted per domain; the cache itself keeps only each category's
    compute cost, in atomics. *)

let m_hits = Obs.Metrics.counter "search.cache.hits"
let m_misses = Obs.Metrics.counter "search.cache.misses"
let m_compute_us = Obs.Metrics.histogram "search.compute_us"

module Results = Parallel.Once.Make (Hashtbl.Make (struct
    type t = Query.t
    let equal = Query.equal
    let hash = Query.hash
  end))

type 'hit t = {
  results : 'hit list Results.t;
  compute_ns : int Atomic.t array;
      (** per {!Query.category_index}: wall-clock cost of the misses *)
}

let create () =
  { results = Results.create 256;
    compute_ns = Array.init Query.n_categories (fun _ -> Atomic.make 0) }

(* -- Domain-local issue counters -------------------------------------- *)

(* Provenance and a run's statistics need query counts that are
   independent of what OTHER runs on the engine did (a daemon's
   concurrent requests).  A slice, and since an analysis runs on its
   calling domain a whole run, issues its queries on one domain, so
   domain-local counters deltaed around it count exactly its own.  The
   issue counts are also independent of scheduling; the hit count is not
   when runs share an engine at once (which run pays the one miss per
   distinct key), so provenance reads only the issue counts.
   Module-global on purpose: a run drives exactly one engine at a time,
   and "queries this domain issued" is the quantity reported. *)

type local_counts = {
  lc_total : int;
  lc_cached : int;
  lc_by_cat : int array;   (** per {!Query.category_index} *)
}

type local = {
  mutable l_total : int;
  mutable l_cached : int;
  l_by_cat : int array;
}

let local_key =
  Domain.DLS.new_key (fun () ->
      { l_total = 0; l_cached = 0;
        l_by_cat = Array.make Query.n_categories 0 })

let local_counts () =
  let l = Domain.DLS.get local_key in
  { lc_total = l.l_total; lc_cached = l.l_cached;
    lc_by_cat = Array.copy l.l_by_cat }

(** Look up or compute the result of [query], counting it on the calling
    domain (misses additionally record the compute's wall-clock cost
    against their category). *)
let find_or_add t query compute =
  let i = Query.category_index (Query.category query) in
  let missed = ref false in
  let hits =
    Results.find_or_add t.results query (fun _ ->
        missed := true;
        let t0 = Unix.gettimeofday () in
        let hits = compute () in
        let elapsed_us = (Unix.gettimeofday () -. t0) *. 1e6 in
        ignore
          (Atomic.fetch_and_add t.compute_ns.(i)
             (int_of_float (elapsed_us *. 1e3)));
        Obs.Metrics.observe m_compute_us elapsed_us;
        hits)
  in
  let l = Domain.DLS.get local_key in
  l.l_total <- l.l_total + 1;
  if not !missed then l.l_cached <- l.l_cached + 1;
  l.l_by_cat.(i) <- l.l_by_cat.(i) + 1;
  Obs.Metrics.incr (if !missed then m_misses else m_hits);
  hits

(** Drop every cached result (the compute costs are kept — they describe
    work actually performed).  Used when the rule set driving the
    searches changes under a reused engine. *)
let flush t = Results.reset t.results

(** Per-category accumulated compute cost (µs spent on cache misses). *)
let category_timings t =
  List.map
    (fun cat ->
       ( cat,
         float_of_int (Atomic.get t.compute_ns.(Query.category_index cat))
         /. 1e3 ))
    (Array.to_list Query.all_categories)
