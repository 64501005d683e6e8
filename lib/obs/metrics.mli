(** Process-wide registry of named counters and log-scale histograms,
    sharded per domain and merged deterministically.

    Register handles once at module toplevel; recording touches only the
    calling domain's shard (no mutex, no atomic RMW).  The merged counter
    values and histogram bucket counts are integer sums across shards, so
    they are independent of how the work was scheduled — identical at
    [--jobs 1] and [--jobs N] whenever the underlying workload is.
    Snapshot/reset while the instrumented workload is quiescent. *)

type counter
type histogram

(** Interned registration (idempotent per name; a name keeps its kind). *)
val counter : string -> counter

val histogram : string -> histogram

val incr : counter -> unit
val add : counter -> int -> unit

(** Record a sample into log-2 buckets: bucket [k >= 1] covers
    [2^(k-1), 2^k); bucket 0 covers values below 1 (and non-finite). *)
val observe : histogram -> float -> unit

(** Recording is on by default; [set_enabled false] makes every recording
    call a single [Atomic.get] no-op (the [Obs.disabled] bench mode). *)
val enabled : unit -> bool

val set_enabled : bool -> unit

type histo = {
  h_count : int;
  h_sum : float;
  h_min : float;
  h_max : float;
  h_buckets : (int * int) list;
      (** (bucket exponent, count), non-zero only, ascending *)
}

type snapshot = {
  counters : (string * int) list;      (** sorted by name *)
  histograms : (string * histo) list;  (** sorted by name *)
}

(** Merge all shards into one deterministic snapshot. *)
val snapshot : unit -> snapshot

(** One histogram merged now, while recording may go on: a sample recorded
    during the read may be missed, so the figures are approximate (the
    daemon's live [stats]). *)
val read : histogram -> histo

(** Zero every metric in every shard. *)
val reset : unit -> unit

(** [quantile h q] estimates the [q]-quantile (q in [0,1]) from the log-2
    buckets: linear interpolation inside the rank's bucket, clamped to the
    observed [h_min, h_max].  0. for an empty histogram. *)
val quantile : histo -> float -> float

val bucket_label : int -> string
val render_table : snapshot -> string
val render_json : snapshot -> string
val write_json : string -> snapshot -> unit
