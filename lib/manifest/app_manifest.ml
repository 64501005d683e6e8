(** The parsed AndroidManifest.xml model: package name plus registered
    components.  Components present in code but *not* listed here are
    deactivated — reaching one of their lifecycle handlers does not make a
    sink reachable (the source of several Amandroid false positives in
    Sec. VI-C). *)

module Str_tbl = Hashtbl.Make (String)

type t = {
  package : string;
  components : Component.t list;
  by_class : Component.t Str_tbl.t;
      (** each class's first component in [components] *)
}

let make ~package ~components =
  let by_class = Str_tbl.create 16 in
  List.iter
    (fun (c : Component.t) ->
       if not (Str_tbl.mem by_class c.cls) then Str_tbl.add by_class c.cls c)
    components;
  { package; components; by_class }

let find_component t cls = Str_tbl.find_opt t.by_class cls

(** Is [cls] a registered entry component? *)
let is_entry_class t cls = Option.is_some (find_component t cls)

let components_matching_action t action =
  List.filter (fun (c : Component.t) -> List.mem action c.actions) t.components

(** All entry-point methods of the app: every lifecycle handler defined by a
    registered component class (looked up in [program], including inherited
    definitions are ignored — only handlers the app overrides count). *)
let entry_methods t (program : Ir.Program.t) =
  List.concat_map
    (fun (comp : Component.t) ->
       match Ir.Program.find_class program comp.cls with
       | None -> []
       | Some c ->
         List.filter_map
           (fun (m : Ir.Jmethod.t) ->
              if Lifecycle.is_lifecycle_subsig (Ir.Jmethod.sub_signature m)
              then Some m.msig
              else None)
           c.methods)
    t.components
