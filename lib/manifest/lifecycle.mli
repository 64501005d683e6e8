(** Domain knowledge about Android lifecycle handlers (Sec. IV-E).

    Since there are only four component kinds, a fixed table suffices: for
    each kind we list the handler sub-signatures and, for the special search
    over lifecycle handlers, which earlier handlers "invoke" (precede) a given
    handler in the lifecycle state machine. *)

val activity_handlers : string list
val service_handlers : string list
val receiver_handlers : string list
val provider_handlers : string list
val all_handler_subsigs : string list
val is_lifecycle_subsig : string -> bool

(** Is [name] the name of some handler?  Lets a caller reject most methods
    before rendering their sub-signature. *)
val is_handler_name : string -> bool

(** Handlers guaranteed to run before [subsig] in the same component —
    the "other lifecycle handlers that invoke the callee handler".  E.g.
    [onResume] is preceded by [onStart], which is preceded by [onCreate]. *)
val predecessors : string -> string list
