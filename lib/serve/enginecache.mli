(** The daemon's hot-engine LRU: resident analysis sessions keyed by
    snapshot path + ruleset hash (or app-spec fingerprint for snapshotless
    requests), evicted least-recently-used under an
    entry-count and a resident-bytes ceiling.  Eviction drops the table's
    reference only — in-flight requests on an evicted session finish
    safely, and a later request for the same key reloads. *)

type entry = {
  key : string;
  spec : Appspec.t;  (** the spec the resident program was generated from *)
  session : Backdroid.Driver.session;
  save_to : string option Atomic.t;
      (** the snapshot path that the session's first analysis writes, with
          its results; taken once, so a session that only answers queries
          writes no file *)
  mutable bytes : int;   (** resident-size estimate (postings + floor) *)
  mutable tick : int;    (** LRU clock *)
}

type t

val create : ?max_entries:int -> ?max_bytes:int -> unit -> t

(** The entry under [key] if it was built for [spec]: a hit, which bumps
    the LRU clock.  Otherwise a miss, also when [key] holds an entry built
    for another spec, which the caller's {!insert} then replaces. *)
val find : t -> string -> spec:Appspec.t -> entry option

(** Insert (replacing any entry under the key) and evict over-ceiling LRU
    entries; the newest entry always stays resident. *)
val insert :
  t -> key:string -> spec:Appspec.t -> ?save_to:string ->
  Backdroid.Driver.session -> entry

type stats = {
  entries : int;
  resident_bytes : int;
  hits : int;
  misses : int;
  evictions : int;
}

val stats : t -> stats
