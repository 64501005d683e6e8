(** The security-sensitive sink API catalog.

    A sink is pure data: a display name, the method signature the initial
    bytecode search targets, and the index of the security-relevant argument
    the slicer backtracks.  What used to be a closed [kind] variant is now
    just the [name] string, so detection rules (see the [Rules] library) can
    introduce new sinks without touching this module — the values below are
    the compiled-in catalog the built-in rules reference.

    The paper's evaluation targets three sink APIs (crypto + 2× SSL); the
    catalog also carries the "uncommon" sinks mentioned in Sec. VI-D, and
    [extended] adds the WebView / SQL-injection / intent-redirection sinks
    of the newer rule families. *)

type t = {
  name : string;           (** stable display label, e.g. ["crypto-cipher"] *)
  msig : Ir.Jsig.meth;
  param_index : int;
      (** index of the security-relevant parameter (receiver excluded) *)
}

let cipher = { name = "crypto-cipher"; msig = Api.cipher_get_instance; param_index = 0 }

let ssl_factory =
  { name = "ssl-hostname"; msig = Api.ssl_set_hostname_verifier; param_index = 0 }

let https_conn =
  { name = "ssl-hostname"; msig = Api.https_set_hostname_verifier; param_index = 0 }

let sms = { name = "sms-send"; msig = Api.sms_send_text_message; param_index = 2 }
let server_socket =
  { name = "server-socket"; msig = Api.server_socket_init; param_index = 0 }
let local_socket =
  { name = "local-socket"; msig = Api.local_server_socket_init; param_index = 0 }

let webview_js =
  { name = "webview-js"; msig = Api.webview_set_javascript_enabled;
    param_index = 0 }

let webview_bridge =
  { name = "webview-bridge"; msig = Api.webview_add_javascript_interface;
    param_index = 1 }

let sql_query =
  { name = "sql-query"; msig = Api.sqlite_raw_query; param_index = 0 }

let intent_redirect =
  { name = "intent-redirect"; msig = Api.context_start_activity;
    param_index = 0 }

(** The three sink APIs of the paper's evaluation (Sec. VI-A). *)
let primary = [ cipher; ssl_factory; https_conn ]

let catalog = [ cipher; ssl_factory; https_conn; sms; server_socket; local_socket ]

let extended = catalog @ [ webview_js; webview_bridge; sql_query; intent_redirect ]

(* ------------------------------------------------------------------ *)
(* Sym-keyed signature lookup.  Under multi-rule loads the baselines probe
   the sink set once per disassembled call site; a linear [List.find_opt]
   over method signatures there is O(rules × params) per probe, while this
   index is one integer hash on the interned full signature. *)

type index = (int, t) Hashtbl.t

(** Build the signature index once per sink set. *)
let index sinks : index =
  let h = Hashtbl.create (max 16 (2 * List.length sinks)) in
  List.iter
    (fun s -> Hashtbl.replace h (Sym.id (Ir.Jsig.meth_sym s.msig)) s)
    sinks;
  h

(** O(1) probe: is [msig] one of the indexed sinks? *)
let find (idx : index) msig =
  Hashtbl.find_opt idx (Sym.id (Ir.Jsig.meth_sym msig))
