(** Domain knowledge about Android lifecycle handlers (Sec. IV-E).

    Since there are only four component kinds, a fixed table suffices: for
    each kind we list the handler sub-signatures and, for the special search
    over lifecycle handlers, which earlier handlers "invoke" (precede) a given
    handler in the lifecycle state machine. *)

let activity_handlers =
  [ "void onCreate(android.os.Bundle)";
    "void onStart()";
    "void onRestart()";
    "void onResume()";
    "void onPause()";
    "void onStop()";
    "void onDestroy()" ]

let service_handlers =
  [ "void onCreate()";
    "int onStartCommand(android.content.Intent,int,int)";
    "android.os.IBinder onBind(android.content.Intent)";
    "void onDestroy()" ]

let receiver_handlers =
  [ "void onReceive(android.content.Context,android.content.Intent)" ]

let provider_handlers = [ "boolean onCreate()" ]

let all_handler_subsigs =
  activity_handlers @ service_handlers @ receiver_handlers @ provider_handlers

let is_lifecycle_subsig subsig = List.mem subsig all_handler_subsigs

let handler_names = List.filter_map Ir.Jsig.subsig_name all_handler_subsigs

(** Is [name] the name of some handler?  Lets a caller reject most methods
    before rendering their sub-signature. *)
let is_handler_name name = List.mem name handler_names

(** Handlers guaranteed to run before [subsig] in the same component —
    the "other lifecycle handlers that invoke the callee handler".  E.g.
    [onResume] is preceded by [onStart], which is preceded by [onCreate]. *)
let predecessors subsig =
  match subsig with
  | "void onStart()" -> [ "void onCreate(android.os.Bundle)"; "void onRestart()" ]
  | "void onRestart()" -> [ "void onStop()" ]
  | "void onResume()" -> [ "void onStart()" ]
  | "void onPause()" -> [ "void onResume()" ]
  | "void onStop()" -> [ "void onPause()" ]
  | "void onDestroy()" -> [ "void onStop()" ]
  | "int onStartCommand(android.content.Intent,int,int)"
  | "android.os.IBinder onBind(android.content.Intent)" -> [ "void onCreate()" ]
  | _ -> []

(* Conservatively, every registered lifecycle handler is system-invoked and
   hence an entry; [predecessors] exists to keep tracking *dataflow* that a
   handler consumes from an earlier handler via fields. *)
