(** backdroidd: the resident analysis service.  A long-lived process that
    keeps hot engines resident behind the {!Enginecache} LRU and serves
    concurrent analyze/query/stats/shutdown requests over a Unix-domain
    (and optionally TCP) socket with the {!Protocol} framing.  Request
    CPU work runs on the worker-domain pool under {!Admission} control;
    per-request budgets come from the wire.  The [stats] reply is one JSON
    object: request, error and cache counters, [jobs], [workers], and the
    p50/p90 in microseconds of the admission wait and of the pool-queue
    wait ([serve.admission_wait_us], [serve.pool_wait_us]). *)

type config = {
  socket : string;            (** Unix-domain socket path *)
  tcp : (string * int) option;
      (** additionally listen on this TCP host/port *)
  jobs : int;
      (** analysis domains: the pool gets [jobs] worker domains (at least
          1), and domain 0 keeps the accept loop and the connection I/O *)
  max_resident : int;         (** hot-engine LRU entry ceiling *)
  max_resident_mb : float;    (** hot-engine LRU resident-bytes ceiling *)
  max_inflight : int;         (** concurrent analyze/query requests *)
  queue_timeout_ms : float;   (** admission wait before a typed rejection *)
  drain_timeout_ms : float;   (** shutdown grace for in-flight requests *)
  rules : Rules.Rule.t list;  (** detection rules (fixed per daemon) *)
  budget : Backdroid.Context.budget;
      (** default slicing budget; the wire can tighten [time_limit_ms]
          per request *)
}

val default_config : config

type t

(** Claim the socket (refusing on a stale-but-live one: connect-probe
    before unlink), bind, and spawn the accept thread.  Returns
    immediately; pair with {!wait}.  No signal handlers are installed —
    that's {!run}'s job. *)
val start : config -> (t, string) result

(** Request shutdown: stop accepting, drain in-flight requests up to the
    drain deadline, close connections, unlink the socket.  Returns
    immediately; {!wait} observes completion.  Idempotent. *)
val stop : t -> unit

(** Join the accept thread (returns after shutdown completed) and release
    the worker pool. *)
val wait : t -> unit

(** Daemon mode: {!start}, install SIGTERM/SIGINT handlers that trigger
    the graceful {!stop}, and {!wait}. *)
val run : config -> (unit, string) result
