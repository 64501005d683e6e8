(** Methods: signature, access flags and an optional SSA-ish body.

    Parameter and receiver bindings follow Shimple's identity-statement
    convention: the body begins with [l := @this] (instance methods) followed
    by [li := @parameterI] statements. *)

type access = {
  is_static : bool;
  is_private : bool;
  is_public : bool;
  is_abstract : bool;
  is_final : bool;
  is_native : bool;
  is_synthetic : bool;
}
val default_access : access
type t = {
  msig : Jsig.meth;
  access : access;
  body : Stmt.t array option;
}
val make :
  ?access:access ->
  msig:Jsig.meth -> body:Stmt.t array option -> unit -> t
val is_constructor : t -> bool
val is_clinit : t -> bool

(** A "signature method" in the paper's sense (Sec. IV-A): one whose callers
    can be located by the basic signature-based search alone — static methods,
    private methods and constructors.  [<clinit>] is nominally a signature
    method but needs the special recursive search of Sec. IV-C, so it is
    excluded here. *)
val is_signature_method : t -> bool
val sub_signature : t -> string

(** Local bound to [@parameterN], when the body uses the identity-statement
    convention. *)
val param_local : t -> int -> Value.local option

(** Local bound to [@this]. *)
val this_local : t -> Value.local option

(** All call sites in the body: [(stmt index, invoke)] pairs. *)
val call_sites : t -> (int * Expr.invoke) list
val stmt_count : t -> int
