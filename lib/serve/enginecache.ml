(* The daemon's hot-engine LRU: resident {!Backdroid.Driver.session}s
   keyed by snapshot path + ruleset hash (or app-spec fingerprint for
   snapshotless requests).  Two ceilings — entry count and
   resident postings bytes — evict least-recently-touched entries on
   insert.

   Eviction only drops the table's reference: a request still running
   against an evicted session keeps it alive through its own reference,
   and the GC reclaims the mmap when the last user drops it.  All table
   operations are mutex-guarded; engine loads happen outside the lock (two
   concurrent misses on one key may both load — the second insert wins,
   which is correct and rare). *)

type entry = {
  key : string;
  mutable spec : Appspec.t;
  mutable session : Backdroid.Driver.session;
  mutable bytes : int;
  mutable tick : int;
}

type t = {
  max_entries : int;
  max_bytes : int;
  mutex : Mutex.t;
  table : (string, entry) Hashtbl.t;
  mutable clock : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable delta_patches : int;
}

let m_hits = Obs.Metrics.counter "serve.cache.hits"
let m_misses = Obs.Metrics.counter "serve.cache.misses"
let m_evictions = Obs.Metrics.counter "serve.cache.evictions"
let m_delta = Obs.Metrics.counter "serve.cache.delta_patches"

let create ?(max_entries = 4) ?(max_bytes = 512 * 1024 * 1024) () =
  { max_entries = max 1 max_entries; max_bytes = max 0 max_bytes;
    mutex = Mutex.create (); table = Hashtbl.create 16; clock = 0;
    hits = 0; misses = 0; evictions = 0; delta_patches = 0 }

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

(* Resident-size estimate for the byte ceiling: the engine's postings
   footprint plus a fixed floor for the arena/lines/symbol side. *)
let entry_floor_bytes = 1 lsl 20

let session_bytes session =
  Bytesearch.Engine.postings_footprint
    (Backdroid.Driver.session_engine session)
  + entry_floor_bytes

let find t key =
  locked t @@ fun () ->
  match Hashtbl.find_opt t.table key with
  | Some e ->
    t.clock <- t.clock + 1;
    e.tick <- t.clock;
    t.hits <- t.hits + 1;
    Obs.Metrics.incr m_hits;
    (* lazily-built postings grow after insert; keep the estimate honest *)
    e.bytes <- session_bytes e.session;
    Some e
  | None ->
    t.misses <- t.misses + 1;
    Obs.Metrics.incr m_misses;
    None

let resident_bytes_unlocked t =
  Hashtbl.fold (fun _ e acc -> acc + e.bytes) t.table 0

let evict_over_ceiling t =
  (* called under the lock *)
  let over () =
    Hashtbl.length t.table > t.max_entries
    || resident_bytes_unlocked t > t.max_bytes
  in
  while over () && Hashtbl.length t.table > 1 do
    (* keep at least the newest entry resident, whatever the ceilings *)
    let lru =
      Hashtbl.fold
        (fun _ e acc ->
           match acc with
           | Some b when b.tick <= e.tick -> acc
           | _ -> Some e)
        t.table None
    in
    match lru with
    | None -> ()
    | Some victim ->
      Hashtbl.remove t.table victim.key;
      t.evictions <- t.evictions + 1;
      Obs.Metrics.incr m_evictions;
      Obs.Flight.record ~kind:"serve" ~name:"cache-evict"
        ~attrs:[ ("key", Obs.Span.Str victim.key);
                 ("bytes", Obs.Span.Int victim.bytes) ]
        ()
  done

let insert t ~key ~spec session =
  locked t @@ fun () ->
  t.clock <- t.clock + 1;
  let e =
    { key; spec; session; bytes = session_bytes session; tick = t.clock }
  in
  Hashtbl.replace t.table key e;
  evict_over_ceiling t;
  e

(* The in-place delta-patch path: same key, new program version. *)
let repatch t e ~spec session =
  locked t @@ fun () ->
  e.spec <- spec;
  e.session <- session;
  e.bytes <- session_bytes session;
  t.clock <- t.clock + 1;
  e.tick <- t.clock;
  t.delta_patches <- t.delta_patches + 1;
  Obs.Metrics.incr m_delta;
  evict_over_ceiling t

type stats = {
  entries : int;
  resident_bytes : int;
  hits : int;
  misses : int;
  evictions : int;
  delta_patches : int;
}

let stats t =
  locked t @@ fun () ->
  { entries = Hashtbl.length t.table;
    resident_bytes = resident_bytes_unlocked t;
    hits = t.hits; misses = t.misses; evictions = t.evictions;
    delta_patches = t.delta_patches }

let mem t key = locked t @@ fun () -> Hashtbl.mem t.table key
