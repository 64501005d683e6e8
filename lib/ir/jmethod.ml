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

let default_access = {
  is_static = false;
  is_private = false;
  is_public = true;
  is_abstract = false;
  is_final = false;
  is_native = false;
  is_synthetic = false;
}

type t = {
  msig : Jsig.meth;
  access : access;
  body : Stmt.t array option;  (** [None] for abstract / native methods *)
}

let make ?(access = default_access) ~msig ~body () =
  { msig; access; body }

let is_constructor m = Jsig.is_init m.msig
let is_clinit m = Jsig.is_clinit m.msig

(** A "signature method" in the paper's sense (Sec. IV-A): one whose callers
    can be located by the basic signature-based search alone — static methods,
    private methods and constructors.  [<clinit>] is nominally a signature
    method but needs the special recursive search of Sec. IV-C, so it is
    excluded here. *)
let is_signature_method m =
  (not (is_clinit m))
  && (m.access.is_static || m.access.is_private || is_constructor m)

let sub_signature m = Jsig.sub_signature m.msig

(** Local bound to [@parameterN], when the body uses the identity-statement
    convention. *)
let param_local m n =
  match m.body with
  | None -> None
  | Some body ->
    Array.fold_left
      (fun acc st ->
         match acc, st with
         | Some _, _ -> acc
         | None, Stmt.Assign (l, Expr.Param i) when i = n -> Some l
         | None, _ -> None)
      None body

(** Local bound to [@this]. *)
let this_local m =
  match m.body with
  | None -> None
  | Some body ->
    Array.fold_left
      (fun acc st ->
         match acc, st with
         | Some _, _ -> acc
         | None, Stmt.Assign (l, Expr.This) -> Some l
         | None, _ -> None)
      None body

(** All call sites in the body: [(stmt index, invoke)] pairs. *)
let call_sites m =
  match m.body with
  | None -> []
  | Some body ->
    let acc = ref [] in
    Array.iteri
      (fun i st ->
         match Stmt.invoke st with
         | Some iv -> acc := (i, iv) :: !acc
         | None -> ())
      body;
    List.rev !acc

let stmt_count m = match m.body with None -> 0 | Some b -> Array.length b
