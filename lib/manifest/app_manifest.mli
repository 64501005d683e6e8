(** The parsed AndroidManifest.xml model: package name plus registered
    components.  Components present in code but *not* listed here are
    deactivated — reaching one of their lifecycle handlers does not make a
    sink reachable (the source of several Amandroid false positives in
    Sec. VI-C). *)

type t = private {
  package : string;
  components : Component.t list;
  by_class : Component.t Hashtbl.Make(String).t;
      (** each class's first component in [components] *)
}
val make : package:string -> components:Component.t list -> t
val find_component : t -> String.t -> Component.t option

(** Is [cls] a registered entry component? *)
val is_entry_class : t -> String.t -> bool
val components_matching_action : t -> string -> Component.t list

(** All entry-point methods of the app: every lifecycle handler defined by a
    registered component class (looked up in [program], including inherited
    definitions are ignored — only handlers the app overrides count). *)
val entry_methods : t -> Ir.Program.t -> Ir.Jsig.meth list
