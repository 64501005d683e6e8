(** Jimple-flavoured pretty-printing of methods and classes, used by the
    examples and by SSG dumps. *)

val pp_access : Format.formatter -> Jmethod.access -> unit
val pp_method : Format.formatter -> Jmethod.t -> unit
val pp_class : Format.formatter -> Jclass.t -> unit
