(** Lock-free per-domain ring buffers: the one event buffer of the
    telemetry layer, under both the flight recorder ({!Flight}) and the
    span recorder ({!Span.install_recorder}).

    A ring {e wraps}: it always retains the most recent [capacity] items
    per domain and counts the older ones as {!overwritten}.  A post-mortem
    wants the recent past, and a profile or [--trace] that outgrows the
    span recorder's 65,536 spans per domain says how many it lost.  The
    hot path is one [Domain.DLS] lookup plus an array store: each domain
    owns its shard exclusively, so no mutex and no atomic RMW is ever
    taken while recording.  A domain returns its shard to a free list on
    exit and the next domain reuses it, so the short-lived per-call pools
    of [Driver.analyze] cannot grow the shard registry (or the retained
    heap) without bound. *)

type 'a t

(** [create ~capacity ()] makes an empty ring retaining at most
    [capacity] items per domain (default [4096], floored at [16]). *)
val create : ?capacity:int -> unit -> 'a t

val capacity : 'a t -> int

(** Append on the calling domain's shard, overwriting the oldest item
    once the shard is at capacity.  Lock-free; safe from any domain. *)
val push : 'a t -> 'a -> unit

(** Retained items, oldest-first within each shard, shards concatenated
    in registration order (callers carrying timestamps sort afterwards).
    Call after the recording workload quiesces — pool batches settle
    through the pool's own mutex, which publishes the shard writes. *)
val snapshot : 'a t -> 'a list

(** Items currently retained across all shards. *)
val length : 'a t -> int

(** Items ever pushed across all shards (retained + overwritten). *)
val total : 'a t -> int

(** Items overwritten by wrap-around (= [total - length]). *)
val overwritten : 'a t -> int

(** Empty every shard (the shards themselves stay registered). *)
val clear : 'a t -> unit
