(** Well-known Android / Java framework API signatures.

    These are the signatures both the app generator and the analyses refer
    to; the corresponding stub classes live in {!module:Stubs}. *)

open Ir

let obj = Types.object_
let str = Types.string_
let intent_t = Types.intent
let runnable_t = Types.runnable
let bundle_t = Types.Object "android.os.Bundle"
let view_t = Types.Object "android.view.View"
let context_t = Types.Object "android.content.Context"
let cipher_t = Types.Object "javax.crypto.Cipher"
let x509_verifier_t = Types.Object "org.apache.http.conn.ssl.X509HostnameVerifier"
let hostname_verifier_t = Types.Object "javax.net.ssl.HostnameVerifier"
let ssl_socket_factory_t = Types.Object "org.apache.http.conn.ssl.SSLSocketFactory"
let async_task_t = Types.Object "android.os.AsyncTask"
let executor_t = Types.Object "java.util.concurrent.Executor"
let on_click_listener_t = Types.Object "android.view.View$OnClickListener"
let sms_manager_t = Types.Object "android.telephony.SmsManager"
let pending_intent_t = Types.Object "android.app.PendingIntent"
let string_builder_t = Types.Object "java.lang.StringBuilder"
let cursor_t = Types.Object "android.database.Cursor"

let m = Jsig.meth

(* --- object / threading --- *)
let object_init = m ~cls:"java.lang.Object" ~name:"<init>" ~params:[] ~ret:Types.Void
let thread_start = m ~cls:"java.lang.Thread" ~name:"start" ~params:[] ~ret:Types.Void
let executor_execute =
  m ~cls:"java.util.concurrent.Executor" ~name:"execute" ~params:[ runnable_t ]
    ~ret:Types.Void
let executors_new_single =
  m ~cls:"java.util.concurrent.Executors" ~name:"newSingleThreadExecutor"
    ~params:[] ~ret:executor_t
let async_task_execute =
  m ~cls:"android.os.AsyncTask" ~name:"execute"
    ~params:[ Types.Array obj ] ~ret:async_task_t

(* --- components / ICC --- *)
let activity_get_intent =
  m ~cls:"android.app.Activity" ~name:"getIntent" ~params:[] ~ret:intent_t
let context_start_service =
  m ~cls:"android.content.Context" ~name:"startService" ~params:[ intent_t ]
    ~ret:Types.Void
let context_start_activity =
  m ~cls:"android.content.Context" ~name:"startActivity" ~params:[ intent_t ]
    ~ret:Types.Void
let context_send_broadcast =
  m ~cls:"android.content.Context" ~name:"sendBroadcast" ~params:[ intent_t ]
    ~ret:Types.Void
let intent_init_explicit =
  m ~cls:"android.content.Intent" ~name:"<init>"
    ~params:[ context_t; Types.Object "java.lang.Class" ] ~ret:Types.Void
let intent_set_action =
  m ~cls:"android.content.Intent" ~name:"setAction" ~params:[ str ] ~ret:intent_t
let intent_put_extra =
  m ~cls:"android.content.Intent" ~name:"putExtra" ~params:[ str; str ]
    ~ret:intent_t
let intent_get_string_extra =
  m ~cls:"android.content.Intent" ~name:"getStringExtra" ~params:[ str ] ~ret:str

(* --- callbacks --- *)
let view_set_on_click_listener =
  m ~cls:"android.view.View" ~name:"setOnClickListener"
    ~params:[ on_click_listener_t ] ~ret:Types.Void

(* --- sinks --- *)
let cipher_get_instance =
  m ~cls:"javax.crypto.Cipher" ~name:"getInstance" ~params:[ str ] ~ret:cipher_t
let ssl_set_hostname_verifier =
  m ~cls:"org.apache.http.conn.ssl.SSLSocketFactory" ~name:"setHostnameVerifier"
    ~params:[ x509_verifier_t ] ~ret:Types.Void
let https_set_hostname_verifier =
  m ~cls:"javax.net.ssl.HttpsURLConnection" ~name:"setHostnameVerifier"
    ~params:[ hostname_verifier_t ] ~ret:Types.Void
let sms_send_text_message =
  m ~cls:"android.telephony.SmsManager" ~name:"sendTextMessage"
    ~params:[ str; str; str; pending_intent_t; pending_intent_t ] ~ret:Types.Void
let sms_get_default =
  m ~cls:"android.telephony.SmsManager" ~name:"getDefault" ~params:[]
    ~ret:sms_manager_t
let server_socket_init =
  m ~cls:"java.net.ServerSocket" ~name:"<init>" ~params:[ Types.Int ]
    ~ret:Types.Void
let local_server_socket_init =
  m ~cls:"android.net.LocalServerSocket" ~name:"<init>" ~params:[ str ]
    ~ret:Types.Void
let webview_set_javascript_enabled =
  m ~cls:"android.webkit.WebView" ~name:"setJavaScriptEnabled"
    ~params:[ Types.Boolean ] ~ret:Types.Void
let webview_add_javascript_interface =
  m ~cls:"android.webkit.WebView" ~name:"addJavascriptInterface"
    ~params:[ obj; str ] ~ret:Types.Void
let sqlite_raw_query =
  m ~cls:"android.database.sqlite.SQLiteDatabase" ~name:"rawQuery"
    ~params:[ str; Types.Array str ] ~ret:cursor_t

(* --- misc helpers --- *)
let string_builder_init =
  m ~cls:"java.lang.StringBuilder" ~name:"<init>" ~params:[] ~ret:Types.Void
let string_builder_append =
  m ~cls:"java.lang.StringBuilder" ~name:"append" ~params:[ str ]
    ~ret:string_builder_t
let string_builder_to_string =
  m ~cls:"java.lang.StringBuilder" ~name:"toString" ~params:[] ~ret:str
let string_value_of_int =
  m ~cls:"java.lang.String" ~name:"valueOf" ~params:[ Types.Int ] ~ret:str

(* --- reflection --- *)
let class_for_name =
  m ~cls:"java.lang.Class" ~name:"forName" ~params:[ str ]
    ~ret:(Types.Object "java.lang.Class")
let class_get_method =
  m ~cls:"java.lang.Class" ~name:"getMethod" ~params:[ str ]
    ~ret:(Types.Object "java.lang.reflect.Method")
let method_invoke =
  m ~cls:"java.lang.reflect.Method" ~name:"invoke"
    ~params:[ obj; Types.Array obj ] ~ret:obj

(* --- well-known fields --- *)
let allow_all_hostname_verifier =
  Jsig.field ~cls:"org.apache.http.conn.ssl.SSLSocketFactory"
    ~name:"ALLOW_ALL_HOSTNAME_VERIFIER" ~ty:x509_verifier_t
