(** Classes: name, hierarchy links, fields and methods.

    [is_system] marks framework stub classes (the android / java / javax /
    org.apache namespaces): their methods have no analysable bodies and their
    bytecode is not part of the app dex, exactly like real framework
    classes. *)

type t = {
  name : string;            (** dotted fully-qualified name *)
  super : string option;    (** [None] only for java.lang.Object *)
  interfaces : string list;
  is_interface : bool;
  is_abstract : bool;
  is_system : bool;
  fields : Jsig.field list;
  methods : Jmethod.t list;
}

let make ?(super = Some "java.lang.Object") ?(interfaces = [])
    ?(is_interface = false) ?(is_abstract = false) ?(is_system = false)
    ?(fields = []) ?(methods = []) name =
  { name; super; interfaces; is_interface; is_abstract; is_system; fields;
    methods }

let find_method c ~name ~params =
  List.find_opt
    (fun (m : Jmethod.t) ->
       String.equal m.msig.Jsig.name name
       && List.length m.msig.Jsig.params = List.length params
       && List.for_all2 Types.equal m.msig.Jsig.params params)
    c.methods

(** The method with sub-signature [subsig].  A candidate is rendered only
    when its name matches. *)
let find_method_by_subsig c subsig =
  match Jsig.subsig_name subsig with
  | None -> None
  | Some name ->
    List.find_opt
      (fun (m : Jmethod.t) ->
         String.equal m.msig.Jsig.name name
         && String.equal (Jmethod.sub_signature m) subsig)
      c.methods

let constructors c =
  List.filter (fun m -> Jmethod.is_constructor m) c.methods

let clinit c = List.find_opt Jmethod.is_clinit c.methods

(** Package prefix of the class name ("" for the default package). *)
let package c =
  match String.rindex_opt c.name '.' with
  | None -> ""
  | Some i -> String.sub c.name 0 i
