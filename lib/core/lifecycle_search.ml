(** Special search over Android lifecycle handlers (Sec. IV-E).

    When backtracking reaches a lifecycle handler: if the dataflow is already
    complete, the handler is an entry method and no further search is needed.
    Otherwise the domain-knowledge table of {!module:Manifest.Lifecycle}
    gives the handlers that run earlier in the same component, which are
    slicing continuations for residual field taints. *)

open Ir

(** Is [m] a lifecycle handler, i.e. does it override one of the four
    component kinds' handler sub-signatures while its class descends from a
    framework component class? *)
let is_lifecycle_handler program (m : Jsig.meth) =
  Manifest.Lifecycle.is_handler_name m.name
  && Manifest.Lifecycle.is_lifecycle_subsig (Jsig.sub_signature m)
  && List.exists
       (fun kind ->
          Program.is_subclass_of program ~sub:m.cls
            ~super:(Manifest.Component.framework_class kind))
       [ Manifest.Component.Activity; Service; Receiver; Provider ]

(** Is [m] an entry point: a lifecycle handler of a component registered in
    the manifest?  Handlers of classes absent from the manifest are
    deactivated code (the Amandroid false-positive class of Sec. VI-C). *)
let is_entry program manifest (m : Jsig.meth) =
  Manifest.App_manifest.is_entry_class manifest m.cls
  && is_lifecycle_handler program m

(** Earlier handlers of the same component class that can seed residual
    state: the transitive predecessor closure, filtered to the handlers the
    class actually defines. *)
let predecessor_handlers program (m : Jsig.meth) =
  let cls = m.cls in
  let defined subsig =
    match Program.find_class program cls with
    | Some c -> Jclass.find_method_by_subsig c subsig
    | None -> None
  in
  let origin = Jsig.sub_signature m in
  let seen = Hashtbl.create 8 in
  let added = Hashtbl.create 8 in
  let rec go subsigs acc =
    match subsigs with
    | [] -> List.rev acc
    | s :: rest ->
      if Hashtbl.mem seen s then go rest acc
      else begin
        Hashtbl.replace seen s ();
        let preds = Manifest.Lifecycle.predecessors s in
        let acc =
          List.fold_left
            (fun acc p ->
               (* the lifecycle state machine is cyclic (resume -> pause ->
                  stop -> restart -> start); never hand back the handler we
                  started from, nor a duplicate *)
               if String.equal p origin || Hashtbl.mem added p then acc
               else
                 match defined p with
                 | Some meth ->
                   Hashtbl.replace added p ();
                   meth.Jmethod.msig :: acc
                 | None -> acc)
            acc preds
        in
        go (rest @ preds) acc
      end
  in
  go [ origin ] []
