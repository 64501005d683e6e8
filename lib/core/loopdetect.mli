(** Dead-method-loop detection (implementation enhancement 3, Sec. IV-F).

    Four loop types are distinguished in BackDroid's output: cross-method and
    inner loops, in both the backward-search and the forward-object-taint
    scenarios.  A loop is "detected" when the analysis is about to revisit a
    method already on its current path; the analysis then prunes instead of
    iterating forever. *)

type kind = Cross_backward | Inner_backward | Cross_forward | Inner_forward
val kind_to_string : kind -> string
type stats = {
  mutable cross_backward : int;
  mutable inner_backward : int;
  mutable cross_forward : int;
  mutable inner_forward : int;
}
val create : unit -> stats
val record : stats -> kind -> unit
val total : stats -> int
val get : stats -> kind -> int

(** Is [m] already on [path]?  If so the caller should record the loop kind
    and prune. *)
val on_path : Ir.Jsig.meth list -> Ir.Jsig.meth -> bool
