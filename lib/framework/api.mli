(** Well-known Android / Java framework API signatures.

    These are the signatures both the app generator and the analyses refer
    to; the corresponding stub classes live in {!module:Stubs}. *)

val obj : Ir.Types.t
val str : Ir.Types.t
val intent_t : Ir.Types.t
val runnable_t : Ir.Types.t
val bundle_t : Ir.Types.t
val view_t : Ir.Types.t
val context_t : Ir.Types.t
val cipher_t : Ir.Types.t
val x509_verifier_t : Ir.Types.t
val hostname_verifier_t : Ir.Types.t
val ssl_socket_factory_t : Ir.Types.t
val async_task_t : Ir.Types.t
val executor_t : Ir.Types.t
val on_click_listener_t : Ir.Types.t
val sms_manager_t : Ir.Types.t
val pending_intent_t : Ir.Types.t
val string_builder_t : Ir.Types.t
val cursor_t : Ir.Types.t
val m :
  cls:string ->
  name:string -> params:Ir.Types.t list -> ret:Ir.Types.t -> Ir.Jsig.meth
val object_init : Ir.Jsig.meth
val thread_start : Ir.Jsig.meth
val executor_execute : Ir.Jsig.meth
val executors_new_single : Ir.Jsig.meth
val async_task_execute : Ir.Jsig.meth
val activity_get_intent : Ir.Jsig.meth
val context_start_service : Ir.Jsig.meth
val context_start_activity : Ir.Jsig.meth
val context_send_broadcast : Ir.Jsig.meth
val intent_init_explicit : Ir.Jsig.meth
val intent_set_action : Ir.Jsig.meth
val intent_put_extra : Ir.Jsig.meth
val intent_get_string_extra : Ir.Jsig.meth
val view_set_on_click_listener : Ir.Jsig.meth
val cipher_get_instance : Ir.Jsig.meth
val ssl_set_hostname_verifier : Ir.Jsig.meth
val https_set_hostname_verifier : Ir.Jsig.meth
val sms_send_text_message : Ir.Jsig.meth
val sms_get_default : Ir.Jsig.meth
val server_socket_init : Ir.Jsig.meth
val local_server_socket_init : Ir.Jsig.meth
val webview_set_javascript_enabled : Ir.Jsig.meth
val webview_add_javascript_interface : Ir.Jsig.meth
val sqlite_raw_query : Ir.Jsig.meth
val string_builder_init : Ir.Jsig.meth
val string_builder_append : Ir.Jsig.meth
val string_builder_to_string : Ir.Jsig.meth
val string_value_of_int : Ir.Jsig.meth
val class_for_name : Ir.Jsig.meth
val class_get_method : Ir.Jsig.meth
val method_invoke : Ir.Jsig.meth
val allow_all_hostname_verifier : Ir.Jsig.field
