(** A fixed-size [Domain]-based worker pool (OCaml 5 multicore, no external
    dependencies): [jobs] counts the total concurrency including the
    submitting thread, so a pool of [jobs = 1] spawns no domains and runs
    every batch inline — exactly the sequential path.

    All combinators preserve input order in their results and re-raise the
    first (lowest-index) exception a task raised, with its backtrace, after
    every task of the batch has settled.  The submitting thread participates
    in draining the queue while it waits, so nested [parallel_map] calls on
    the same pool cannot deadlock.  The tasks it drains may belong to any
    batch, so code that holds a lock, or a {!Once} value it is computing,
    must not submit a batch: a drained task could wait on it from the same
    thread. *)

type t

(** [Domain.recommended_domain_count () - 1], floored at 1 — leave one core
    for the submitting thread's bookkeeping. *)
val default_jobs : unit -> int

(** [create ~jobs] spawns [jobs - 1] worker domains ([jobs] is clamped to at
    least 1): [jobs] counts the submitting thread, which helps drain its
    batches.  A caller whose threads only {!async} work and never help
    (the daemon) passes one more than the domains it wants working.  Call
    {!shutdown} when done; {!with_pool} does it for you. *)
val create : jobs:int -> t

(** Worker domains running now: [jobs - 1] until {!shutdown}, 0 after. *)
val workers : t -> int

(** Signal the workers to exit and join them.  Idempotent.  Outstanding
    batches must have completed. *)
val shutdown : t -> unit

(** [with_pool ~jobs f] runs [f] over a fresh pool and shuts it down
    afterwards, also on exception. *)
val with_pool : jobs:int -> (t -> 'a) -> 'a

(** [async t task] enqueues one fire-and-forget task; only a worker domain
    runs it, never the calling thread.  [task] must not raise (wrap and
    park the outcome in a cell, as the batch combinators do).  Raises
    [Invalid_argument] when the pool has no workers ([jobs = 1]) or has
    been shut down, where nobody would ever pop the task. *)
val async : t -> (unit -> unit) -> unit

(** Order-preserving parallel map over an array. *)
val parallel_map : t -> ('a -> 'b) -> 'a array -> 'b array

(** Order-preserving parallel map over a list. *)
val parallel_map_list : t -> ('a -> 'b) -> 'a list -> 'b list
