(** Persisted per-sink analysis results with content-hash invalidation.

    One {!entry} caches one sink call site's backtracking + forward
    propagation outcome — reachability and the propagated sink-argument
    {!Facts.t} — stamped with its {e footprint}: each app class the SSG
    slice touched, with its {!class_hash} when the entry was made.
    Verdicts are not cached; they are recomputed per rule from the cached
    fact ({!Detectors.classify_rule} is pure), so replay is safe across
    rule-set changes.

    {!lookup} serves an entry only when every footprint class has its
    recorded hash in the new build's {!Dex.Classmap} and manifest {e and}
    is named by no slot the build indexed in this process ({!plan}) — for
    a delta, its changed and added classes.  That is the condition under
    which the slice provably reproduces (any caller/writer the backward
    search would find was visited and is in the footprint; the manifest,
    which decides which classes are entries, also for the class-use
    search of a [<clinit>], is folded whole into every hash).
    [Partial]-outcome slices are never cached (budget exhaustion may be
    wall-clock dependent).

    Serializes to an opaque [string array], one string per entry, stored
    in snapshot files via {!Store.Snapshot.save}'s [results] argument (the
    store does not interpret the strings; this module owns the format). *)

type entry = {
  e_sink_msig : string;   (** [Jsig.meth_to_string] of the sink signature *)
  e_param_index : int;
  e_meth : string;        (** containing method, [Jsig.meth_to_string] *)
  e_site : int;
  e_reachable : bool;
  e_fact : Facts.t;
  e_footprint : (string * int64) list;
      (** app classes the SSG slice touched, with their {!class_hash}es
          when the entry was made *)
}

(** A class's IR hash ({!Dex.Classmap}'s [ir_hash]) folded with a digest
    of the whole [manifest]: its package and each component's class,
    kind, exported flag and intent-filter actions.  [None] for a class
    not in [classmap].  Apply it to [classmap] and [manifest] once and the
    result to each class. *)
val class_hash :
  classmap:Dex.Classmap.t -> manifest:Manifest.App_manifest.t -> string ->
  int64 option

type t

val empty : t

(** Entries failing the round-trip cacheability check are dropped at
    serialization time, not here. *)
val build : entry list -> t

val entries : t -> entry list
val length : t -> int

(** Serialize, one string per entry.  Entries whose fact does not
    round-trip byte-identically (or contains a points-to cycle) are
    silently dropped — replay must be a pure function of the persisted
    bytes. *)
val to_strings : t -> string array

(** Parse; [Error] on any malformed record (callers treat it as an absent
    cache), never an exception: a length, a count or an int that does not
    fit the bytes left or an OCaml [int] is refused before it is used.
    [of_strings [||]] is {!empty}. *)
val of_strings : string array -> (t, string) result

(** A replay plan: the cache against one new build. *)
type plan

(** Collect the operand classes of the slots [dex] indexed in this
    process ({!Dex.Dexfile.field-rendered}) and keep [dex]'s class map and
    the session's [manifest] to check footprint hashes against.  A
    delta-built dexfile indexed exactly its changed and added classes; a
    snapshot-loaded one indexed nothing, so only the hashes decide; a cold
    one indexed every class, so an entry replays only if no slot names a
    footprint class. *)
val plan :
  t -> dex:Dex.Dexfile.t -> manifest:Manifest.App_manifest.t -> plan

(** The cached entry for this sink call site, iff its footprint is
    non-empty and each footprint class has its recorded {!class_hash} in
    the plan's class map and manifest and is named by no indexed slot. *)
val lookup :
  plan ->
  sink_msig:string ->
  param_index:int ->
  meth:string ->
  site:int ->
  entry option
