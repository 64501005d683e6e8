(** The daemon's hot-engine LRU: resident analysis sessions keyed by
    snapshot path + ruleset hash (or app-spec fingerprint for snapshotless
    requests), evicted least-recently-used under an
    entry-count and a resident-bytes ceiling.  Eviction drops the table's
    reference only — in-flight requests on an evicted session finish
    safely, and a later request for the same key reloads. *)

type entry = {
  key : string;
  mutable spec : Appspec.t;
      (** the spec the resident program was generated from; a request with
          the same key but a different spec triggers the delta-patch path *)
  mutable session : Backdroid.Driver.session;
  mutable bytes : int;   (** resident-size estimate (postings + floor) *)
  mutable tick : int;    (** LRU clock *)
}

type t

val create : ?max_entries:int -> ?max_bytes:int -> unit -> t

(** Resident-size estimate used for the byte ceiling. *)
val session_bytes : Backdroid.Driver.session -> int

(** Lookup; bumps the LRU clock and the hit/miss counters. *)
val find : t -> string -> entry option

(** Insert (replacing any entry under the key) and evict over-ceiling LRU
    entries; the newest entry always stays resident. *)
val insert :
  t -> key:string -> spec:Appspec.t -> Backdroid.Driver.session -> entry

(** Replace an entry's session after an in-place delta patch (same key,
    new program version); counts as a delta patch, not a miss. *)
val repatch :
  t -> entry -> spec:Appspec.t -> Backdroid.Driver.session -> unit

type stats = {
  entries : int;
  resident_bytes : int;
  hits : int;
  misses : int;
  evictions : int;
  delta_patches : int;
}

val stats : t -> stats
val mem : t -> string -> bool
