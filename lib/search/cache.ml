(** Search-command caching (implementation enhancement 1, Sec. IV-F).

    The results are a keyed {!Parallel.Once} table: a miss computes with no
    lock held, and a domain racing on the same key waits for that compute
    and counts a hit, so each distinct key is one miss and the counters
    are scheduling-independent, which the jobs=1-vs-jobs=N determinism
    guarantee relies on.  The counters are atomics. *)

let m_hits = Obs.Metrics.counter "search.cache.hits"
let m_misses = Obs.Metrics.counter "search.cache.misses"
let m_compute_us = Obs.Metrics.histogram "search.compute_us"

(* Per {!Query.category_index}. *)
type category_stat = {
  c_total : int Atomic.t;
  c_cached : int Atomic.t;
  c_compute_ns : int Atomic.t;  (** wall-clock cost of the misses *)
}

module Results = Parallel.Once.Make (Hashtbl.Make (struct
    type t = Query.t
    let equal = Query.equal
    let hash = Query.hash
  end))

type 'hit t = {
  results : 'hit list Results.t;
  per_category : category_stat array;
}

let create () =
  { results = Results.create 256;
    per_category =
      Array.init Query.n_categories (fun _ ->
          { c_total = Atomic.make 0; c_cached = Atomic.make 0;
            c_compute_ns = Atomic.make 0 }) }

(* -- Domain-local issue counters -------------------------------------- *)

(* Provenance needs per-slice query counts that are independent of how the
   pool scheduled OTHER slices: the shared counters above cannot provide
   that (which slice pays the one miss per distinct key is
   scheduling-dependent), but a slice runs entirely on one domain, so
   domain-local counters deltaed around it are.  They count queries
   issued, never the hit/miss split, which stays scheduling-dependent
   however it is deltaed.  Module-global on purpose: a slice drives exactly one
   engine at a time, and "queries this domain issued" is the quantity the
   ledger reports. *)

type local_counts = {
  lc_total : int;
  lc_by_cat : int array;   (** per {!Query.category_index} *)
}

type local = {
  mutable l_total : int;
  l_by_cat : int array;
}

let local_key =
  Domain.DLS.new_key (fun () ->
      { l_total = 0; l_by_cat = Array.make Query.n_categories 0 })

let bump_local cat =
  let l = Domain.DLS.get local_key in
  l.l_total <- l.l_total + 1;
  let i = Query.category_index cat in
  l.l_by_cat.(i) <- l.l_by_cat.(i) + 1

(** The calling domain's cumulative issue counters (snapshot before/after a
    slice and subtract). *)
let local_counts () =
  let l = Domain.DLS.get local_key in
  { lc_total = l.l_total; lc_by_cat = Array.copy l.l_by_cat }

(** Look up or compute the result of [query], recording statistics (misses
    additionally record the compute's wall-clock cost against their
    category). *)
let find_or_add t query compute =
  let cat = Query.category query in
  let c = t.per_category.(Query.category_index cat) in
  let missed = ref false in
  let hits =
    Results.find_or_add t.results query (fun _ ->
        missed := true;
        let t0 = Unix.gettimeofday () in
        let hits = compute () in
        let elapsed_us = (Unix.gettimeofday () -. t0) *. 1e6 in
        ignore
          (Atomic.fetch_and_add c.c_compute_ns
             (int_of_float (elapsed_us *. 1e3)));
        Obs.Metrics.observe m_compute_us elapsed_us;
        hits)
  in
  let was_cached = not !missed in
  Atomic.incr c.c_total;
  if was_cached then Atomic.incr c.c_cached;
  bump_local cat;
  Obs.Metrics.incr (if was_cached then m_hits else m_misses);
  hits

(** Drop every cached result (the statistics counters are kept — they
    describe work actually performed).  Used when the rule set driving the
    searches changes under a reused engine. *)
let flush t = Results.reset t.results

let sum f t =
  Array.fold_left (fun n c -> n + Atomic.get (f c)) 0 t.per_category

let total_searches t = sum (fun c -> c.c_total) t
let cached_searches t = sum (fun c -> c.c_cached) t

(** Fraction of search commands served from cache, in [0, 1]. *)
let cache_rate t =
  (* a hit counts its total first, so reading the cached count first keeps
     it at most the total *)
  let cached = cached_searches t in
  let total = total_searches t in
  if total = 0 then 0.0 else float_of_int cached /. float_of_int total

(* The categories searched so far, in index order. *)
let searched t f =
  List.filter_map
    (fun cat ->
       let c = t.per_category.(Query.category_index cat) in
       if Atomic.get c.c_total = 0 then None else Some (f cat c))
    (Array.to_list Query.all_categories)

let category_stats t =
  searched t (fun cat c -> (cat, Atomic.get c.c_total, Atomic.get c.c_cached))

(** Per-category accumulated compute cost (µs spent on cache misses). *)
let category_timings t =
  searched t (fun cat c ->
      (cat, float_of_int (Atomic.get c.c_compute_ns) /. 1e3))
