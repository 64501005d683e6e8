(** Values built once, on first use, and shared by every domain.

    A compute runs outside every lock: a caller that finds the value
    pending waits for it and takes the computed value, so a value is
    computed exactly once however many domains race for it.  A compute
    that raises leaves the value unbuilt, re-raises to its own caller,
    and wakes its waiters, one of which computes again.

    A caller must never wait on a value that only its own compute can
    finish: a compute must not ask for its own value, directly or through
    another once-value whose compute asks for it, and must not run a
    {!Pool} batch, whose help-drain could run such a caller on the
    computing domain. *)

(** {1 Single cells} *)

type 'a t

(** An empty cell. *)
val make : unit -> 'a t

(** A cell filled from the start. *)
val filled : 'a -> 'a t

(** [get c compute] is the cell's value, computed by [compute ()] on the
    first call.  Once the cell is filled, a read is one [Atomic.get]. *)
val get : 'a t -> (unit -> 'a) -> 'a

(** The value, if the cell is filled; never waits. *)
val peek : 'a t -> 'a option

(** {1 Keyed tables} *)

(** The table operations {!Make} needs: [Hashtbl.Make] and
    [Ephemeron.K1.Make] both provide them. *)
module type TABLE = sig
  type key
  type 'a t
  val create : int -> 'a t
  val find_opt : 'a t -> key -> 'a option
  val replace : 'a t -> key -> 'a -> unit
  val reset : 'a t -> unit
end

module Make (H : TABLE) : sig
  type 'v t

  val create : int -> 'v t

  (** [find_or_add t k compute] is [k]'s value, computed by [compute k]
      when the key is absent.  Finding the key, or installing its pending
      cell, is one short critical section on the table's lock; a hit is
      that section alone, and a miss allocates no lock. *)
  val find_or_add : 'v t -> H.key -> (H.key -> 'v) -> 'v

  (** Drop every key.  A compute in flight still hands its value to the
      callers waiting for it, but does not re-add its key. *)
  val reset : 'v t -> unit
end
