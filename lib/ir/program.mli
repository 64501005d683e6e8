(** A whole program: the class table plus hierarchy queries and (CHA-style)
    virtual-dispatch resolution.  This is the "program analysis space" side of
    BackDroid; the "bytecode search space" is derived from it by
    {!module:Dex.Disasm}. *)

(** The class table plus per-program hierarchy caches.  The hierarchy
    queries are domain-safe, so the pool domains of one session may share
    a program; {!dispatch_targets}' memo table is not (only the
    single-domain baselines use it), and {!add_class} must not race with
    any query. *)
type t
val create : unit -> t

(** Add or replace a class; resets the hierarchy caches. *)
val add_class : t -> Jclass.t -> unit
val of_classes : Jclass.t list -> t
val find_class : t -> string -> Jclass.t option
val iter_classes : t -> (Jclass.t -> unit) -> unit
val fold_classes : t -> (Jclass.t -> 'a -> 'a) -> 'a -> 'a
val app_classes : t -> Jclass.t list
val find_method : t -> Jsig.meth -> Jmethod.t option

(** Walk up the superclass chain starting from (and excluding) [name]. *)
val superclasses : t -> string -> string list

(** All interfaces implemented by [name], transitively (through both the
    superclass chain and super-interfaces). *)
val interfaces_of : t -> string -> string list

(** {!superclasses} followed by {!interfaces_of}, built once per class and
    program and read without a lock. *)
val ancestors : t -> string -> string list

(** Direct subclasses and implementers of [name], from a parent-to-children
    table built once per program and read without a lock. *)
val direct_subclasses : t -> string -> string list

(** All strict subclasses (and, for interfaces, implementers) of [name]. *)
val subclasses_transitive : t -> string -> string list

(** [sub] is [super] or one of its {!ancestors}. *)
val is_subclass_of : t -> sub:String.t -> super:String.t -> bool

(** Resolve a sub-signature against [cls], walking up the hierarchy as the VM
    would.  Returns the concrete declaring method, if any. *)
val resolve_method :
  t -> string -> String.t -> (Jclass.t * Jmethod.t) option

(** CHA dispatch: all concrete methods an [invoke-virtual] /
    [invoke-interface] on static receiver type [cls] with [subsig] may reach.
    Considers the resolved method in [cls] itself plus every overriding
    definition in subclasses / implementers. *)
val dispatch_targets_uncached :
  t -> string -> String.t -> (string * Jmethod.t) list
val dispatch_targets :
  t -> string -> String.t -> (string * Jmethod.t) list

(** Does any strict subclass of [cls] override [subsig]?  Drives the paper's
    child-class signature-search rule (Sec. IV-A). *)
val subclass_overrides : t -> string -> String.t -> bool

(** Does [msig]'s method override a method declared in a superclass or
    interface of its class?  Such callees need the advanced search. *)
val overrides_foreign_declaration : t -> Jsig.meth -> bool

(** Total number of statements in app (non-system) method bodies — our
    size metric, standing in for APK megabytes. *)
val code_size : t -> int
val method_count : t -> int
val class_count : t -> int
