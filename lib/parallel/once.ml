(* Values built once, on first use.  A caller claims an empty cell by
   marking it pending under a lock, computes with no lock held, and
   settles the cell under the lock again, waking every waiter; a waiter
   re-reads the cell when woken.  Waits are rare, so one condition serves
   every cell a lock guards. *)

type 'a state = Empty | Pending | Full of 'a

type 'a t = 'a state Atomic.t

(* Under [lock], which it releases: [c]'s value, computed by [compute x]
   if [c] is empty. *)
let rec claim lock settled c compute x =
  match Atomic.get c with
  | Full v ->
    Mutex.unlock lock;
    v
  | Pending ->
    Condition.wait settled lock;
    claim lock settled c compute x
  | Empty ->
    Atomic.set c Pending;
    Mutex.unlock lock;
    let settle s =
      Mutex.lock lock;
      Atomic.set c s;
      Condition.broadcast settled;
      Mutex.unlock lock
    in
    (match compute x with
     | v ->
       settle (Full v);
       v
     | exception e ->
       let bt = Printexc.get_raw_backtrace () in
       settle Empty;
       Printexc.raise_with_backtrace e bt)

(* -- Single cells ------------------------------------------------------ *)

(* Taken only until a cell fills, so every single cell shares them. *)
let lock = Mutex.create ()
let settled = Condition.create ()

let make () = Atomic.make Empty
let filled v = Atomic.make (Full v)

let peek c =
  match Atomic.get c with
  | Full v -> Some v
  | Empty | Pending -> None

let get c compute =
  match Atomic.get c with
  | Full v -> v
  | Empty | Pending ->
    Mutex.lock lock;
    claim lock settled c compute ()

(* -- Keyed tables ------------------------------------------------------ *)

module type TABLE = sig
  type key
  type 'a t
  val create : int -> 'a t
  val find_opt : 'a t -> key -> 'a option
  val replace : 'a t -> key -> 'a -> unit
  val reset : 'a t -> unit
end

module Make (H : TABLE) = struct
  (* A key whose compute raised keeps its emptied cell, which the next
     caller claims as it would a new one. *)
  type 'v t = {
    cells : 'v state Atomic.t H.t;
    lock : Mutex.t;
    settled : Condition.t;
  }

  let create n =
    { cells = H.create n; lock = Mutex.create ();
      settled = Condition.create () }

  let find_or_add t k compute =
    Mutex.lock t.lock;
    let c =
      match H.find_opt t.cells k with
      | Some c -> c
      | None ->
        let c = make () in
        H.replace t.cells k c;
        c
    in
    claim t.lock t.settled c compute k

  let reset t =
    Mutex.lock t.lock;
    H.reset t.cells;
    Mutex.unlock t.lock
end
