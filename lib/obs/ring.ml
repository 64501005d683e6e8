(** Lock-free per-domain ring buffers: the one event buffer of the
    telemetry layer, under the flight recorder ({!Flight}) and the span
    recorder ({!Span.install_recorder}).

    A ring *wraps*: it always retains the most recent [capacity] items per
    domain and counts the older ones as overwritten.  The hot path is one
    [Domain.DLS] lookup plus an array store: each domain owns its shard
    exclusively, so no mutex and no atomic RMW is ever taken while
    recording.  Shards register themselves under a lock once per domain;
    {!snapshot} merges them after the workload quiesces
    (pool batches settle through the pool's own mutex, which publishes the
    shard writes). *)

type 'a shard = {
  mutable buf : 'a array;   (* grows to [capacity], then wraps *)
  mutable len : int;        (* filled slots, <= capacity *)
  mutable pos : int;        (* next write index once wrapping *)
  mutable pushed : int;     (* total pushes on this shard, ever *)
}

type 'a t = {
  capacity : int;                 (* per shard *)
  lock : Mutex.t;                 (* guards [shards]/[free] *)
  shards : 'a shard list ref;     (* every shard ever issued, for merging *)
  free : 'a shard list ref;       (* shards of exited domains, for reuse *)
  key : 'a shard Domain.DLS.key;
}

let create ?(capacity = 1 lsl 12) () =
  let lock = Mutex.create () in
  let shards = ref [] in
  let free = ref [] in
  let key =
    (* runs on first use per domain — the only locked step of the hot path,
       paid once per domain.  A domain returns its shard to the free list
       on exit and the next domain reuses it: short-lived per-call pools
       (Driver.analyze spawns one per run) would otherwise grow the
       registry — and the retained-event heap — without bound.  A retired
       shard keeps its contents, so events of dead domains stay visible to
       {!snapshot} until a successor wraps over them. *)
    Domain.DLS.new_key (fun () ->
        Mutex.lock lock;
        let s =
          match !free with
          | s :: rest ->
            free := rest;
            s
          | [] ->
            let s = { buf = [||]; len = 0; pos = 0; pushed = 0 } in
            shards := s :: !shards;
            s
        in
        Mutex.unlock lock;
        Domain.at_exit (fun () ->
            Mutex.lock lock;
            free := s :: !free;
            Mutex.unlock lock);
        s)
  in
  { capacity = max 16 capacity; lock; shards; free; key }

let capacity t = t.capacity

(* Unsynchronized per-domain append-or-overwrite. *)
let push t v =
  let s = Domain.DLS.get t.key in
  if s.len < t.capacity then begin
    (* growth phase: plain append, doubling up to capacity *)
    let cap = Array.length s.buf in
    if s.len >= cap then begin
      let cap' = min t.capacity (max 16 (2 * cap)) in
      let buf' = Array.make cap' v in
      Array.blit s.buf 0 buf' 0 s.len;
      s.buf <- buf'
    end;
    s.buf.(s.len) <- v;
    s.len <- s.len + 1;
    if s.len = t.capacity then s.pos <- 0
  end
  else begin
    (* wrap phase: overwrite the oldest slot *)
    s.buf.(s.pos) <- v;
    s.pos <- (s.pos + 1) mod t.capacity
  end;
  s.pushed <- s.pushed + 1

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let shard_items s cap =
  if s.len < cap then Array.to_list (Array.sub s.buf 0 s.len)
  else
    (* oldest-first: the slot about to be overwritten is the oldest *)
    Array.to_list (Array.sub s.buf s.pos (cap - s.pos))
    @ Array.to_list (Array.sub s.buf 0 s.pos)

(** Retained items, oldest-first within each shard, shards concatenated in
    registration order (callers carrying timestamps sort afterwards). *)
let snapshot t =
  with_lock t (fun () ->
      List.concat_map (fun s -> shard_items s t.capacity) !(t.shards))

(** Items currently retained across all shards. *)
let length t =
  with_lock t (fun () -> List.fold_left (fun n s -> n + s.len) 0 !(t.shards))

(** Items ever pushed across all shards (retained + overwritten). *)
let total t =
  with_lock t (fun () ->
      List.fold_left (fun n s -> n + s.pushed) 0 !(t.shards))

(** Items overwritten by wrap-around (= [total - length]). *)
let overwritten t =
  with_lock t (fun () ->
      List.fold_left (fun n s -> n + (s.pushed - s.len)) 0 !(t.shards))

let clear t =
  with_lock t (fun () ->
      List.iter
        (fun s ->
           s.len <- 0;
           s.pos <- 0;
           s.pushed <- 0)
        !(t.shards))
