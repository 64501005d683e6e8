(** Forward object taint analysis (Sec. IV-B): starting from a constructor
    allocation site located by signature search, propagate the object through
    definition, invoke and return statements until it reaches an "ending
    method" — either an app-level call with the callee's own sub-signature
    (super-class / interface dispatch) or a framework API call that receives
    the tainted object at a position whose declared type indicates the
    callee's interface (callbacks and asynchronous flows).  The whole call
    chain is maintained so the backward analysis does not pick up unrelated
    flows. *)

(** One discovered advanced caller: where the tracked object comes into
    being, the chain it is propagated through, and the ending method. *)
type advanced_caller = {
  caller : Ir.Jsig.meth;
      (** chain head: the method where the tracked object is created *)
  obj_local : string;    (** local holding the object in [caller] *)
  obj_site : int;        (** allocation (or escape) site in [caller] *)
  chain : (Ir.Jsig.meth * int) list;
      (** methods the object was propagated through: (method, call site) *)
  ending : Ir.Jsig.meth;    (** the ending method *)
  ending_in : Ir.Jsig.meth; (** method whose body contains the ending call *)
  ending_site : int;
  ending_invoke : Ir.Expr.invoke option;
      (** the ending invocation, for argument mapping at app-level endings *)
}

(** Supertypes of [cls] (classes and interfaces, app or system) that declare
    [subsig] — the "interface class type" indicators of Sec. IV-B. *)
val indicator_types : Ir.Program.t -> string -> string -> string list

(** Find the advanced callers of [callee] (a method needing the advanced
    search): search each of the callee class's constructors, then run forward
    object taint from every allocation site.  Loop statistics accumulate the
    CrossForward / InnerForward detections. *)
val advanced_callers :
  Bytesearch.Engine.t ->
  Loopdetect.stats ->
  Ir.Jsig.meth ->
  advanced_caller list
