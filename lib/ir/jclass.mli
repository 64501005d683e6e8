(** Classes: name, hierarchy links, fields and methods.

    [is_system] marks framework stub classes (the android / java / javax /
    org.apache namespaces): their methods have no analysable bodies and their
    bytecode is not part of the app dex, exactly like real framework
    classes. *)

type t = {
  name : string;
  super : string option;
  interfaces : string list;
  is_interface : bool;
  is_abstract : bool;
  is_system : bool;
  fields : Jsig.field list;
  methods : Jmethod.t list;
}
val make :
  ?super:string option ->
  ?interfaces:string list ->
  ?is_interface:bool ->
  ?is_abstract:bool ->
  ?is_system:bool ->
  ?fields:Jsig.field list -> ?methods:Jmethod.t list -> string -> t
val find_method :
  t -> name:String.t -> params:Types.t list -> Jmethod.t option

(** The method with sub-signature [subsig].  A candidate is rendered only
    when its name matches. *)
val find_method_by_subsig : t -> String.t -> Jmethod.t option
val constructors : t -> Jmethod.t list
val clinit : t -> Jmethod.t option

(** Package prefix of the class name ("" for the default package). *)
val package : t -> string
