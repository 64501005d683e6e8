(** Fixed-size [Domain] worker pool with a mutex/condition task queue.

    Tasks pushed to the queue are opaque thunks that never raise (the
    batch combinators wrap user functions and park outcomes in a result
    cell).  The submitting thread helps drain the queue while its own batch
    is outstanding, which both keeps all [jobs] cores busy and makes nested
    batches on one pool deadlock-free: nobody ever blocks waiting for a task
    that only a blocked thread could run. *)

type task = unit -> unit

type t = {
  jobs : int;
  mutex : Mutex.t;
  nonempty : Condition.t;   (* a task was enqueued / the pool closed *)
  progress : Condition.t;   (* a task completed (batch helpers wait here) *)
  queue : task Queue.t;
  mutable closed : bool;
  mutable workers : unit Domain.t list;
}

let default_jobs () = max 1 (Domain.recommended_domain_count () - 1)

let workers t = List.length t.workers

let rec worker_loop t =
  Mutex.lock t.mutex;
  let rec next () =
    if not (Queue.is_empty t.queue) then Some (Queue.pop t.queue)
    else if t.closed then None
    else begin
      Condition.wait t.nonempty t.mutex;
      next ()
    end
  in
  let task = next () in
  Mutex.unlock t.mutex;
  match task with
  | None -> ()
  | Some task ->
    task ();
    worker_loop t

let create ~jobs =
  let jobs = max 1 jobs in
  let t =
    { jobs; mutex = Mutex.create (); nonempty = Condition.create ();
      progress = Condition.create ();
      queue = Queue.create (); closed = false; workers = [] }
  in
  t.workers <-
    List.init (jobs - 1) (fun _ -> Domain.spawn (fun () -> worker_loop t));
  t

let shutdown t =
  Mutex.lock t.mutex;
  t.closed <- true;
  Condition.broadcast t.nonempty;
  Mutex.unlock t.mutex;
  List.iter Domain.join t.workers;
  t.workers <- []

let with_pool ~jobs f =
  let t = create ~jobs in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

(* One fire-and-forget task for the workers.  With no worker domains
   (jobs = 1) or after shutdown nobody would pop it, so refuse rather than
   drop it silently. *)
let async t task =
  Mutex.lock t.mutex;
  if t.closed || t.jobs = 1 then begin
    Mutex.unlock t.mutex;
    invalid_arg "Pool.async: the pool has no worker domains"
  end;
  Queue.push task t.queue;
  Condition.signal t.nonempty;
  Mutex.unlock t.mutex

(* ------------------------------------------------------------------ *)
(* Batches                                                             *)

type 'b cell = Pending | Done of 'b | Failed of exn * Printexc.raw_backtrace

(* Collect a settled batch, preferring the lowest-index failure. *)
let collect results =
  Array.iter
    (function
      | Failed (e, bt) -> Printexc.raise_with_backtrace e bt
      | Done _ -> ()
      | Pending -> assert false)
    results;
  Array.map (function Done v -> v | Failed _ | Pending -> assert false) results

let parallel_map t f arr =
  let n = Array.length arr in
  if n = 0 then [||]
  else if t.jobs = 1 || n = 1 then Array.map f arr
  else begin
    let results = Array.make n Pending in
    let remaining = Atomic.make n in
    let run i =
      (match f arr.(i) with
       | v -> results.(i) <- Done v
       | exception e ->
         let bt = Printexc.get_raw_backtrace () in
         results.(i) <- Failed (e, bt));
      (* the decrement publishes the cell write to whoever observes it *)
      ignore (Atomic.fetch_and_add remaining (-1));
      Mutex.lock t.mutex;
      Condition.broadcast t.progress;
      Mutex.unlock t.mutex
    in
    Mutex.lock t.mutex;
    for i = 0 to n - 1 do
      Queue.push (fun () -> run i) t.queue
    done;
    Condition.broadcast t.nonempty;
    Mutex.unlock t.mutex;
    (* Help drain until this batch has settled.  The popped task may belong
       to another in-flight batch on the same pool — running it here is still
       progress and keeps nesting deadlock-free.  When the queue is empty but
       tasks are still in flight on other domains, sleep until one completes
       rather than spinning (a hot caller would steal cycles from the workers
       on saturated machines).  No lost wakeup: completions broadcast
       [progress] under the same mutex that guards our emptiness check. *)
    let rec help () =
      if Atomic.get remaining > 0 then begin
        Mutex.lock t.mutex;
        let task =
          if Queue.is_empty t.queue then None else Some (Queue.pop t.queue)
        in
        match task with
        | Some task ->
          Mutex.unlock t.mutex;
          task ();
          help ()
        | None ->
          if Atomic.get remaining > 0 then Condition.wait t.progress t.mutex;
          Mutex.unlock t.mutex;
          help ()
      end
    in
    help ();
    collect results
  end

let parallel_map_list t f xs =
  Array.to_list (parallel_map t f (Array.of_list xs))
