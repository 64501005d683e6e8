(** Code-pattern templates.  Each template plants one sink API call wrapped in
    a specific code shape (see {!module:Shape}) together with the app classes
    and manifest components that make the flow (un)reachable, and returns the
    ground truth used to score detection accuracy. *)

open Ir
module B = Builder
module Api = Framework.Api
module Sinks = Framework.Sinks
module Component = Manifest.Component

type ctx = {
  ns : string;    (** unique namespace for this plant, e.g. "com.app7.s3" *)
  rng : Rng.t;
}

type planted = {
  shape : Shape.t;
  sink : Sinks.t;
  insecure : bool;
  reachable : bool;
  spec : string;       (** human-readable security-relevant parameter value *)
  sink_class : string; (** class whose code contains the sink call *)
}

type result = {
  classes : Jclass.t list;
  components : Component.t list;
  planted : planted;
}

(* ------------------------------------------------------------------ *)
(* Small helpers                                                       *)

let void = Types.Void

let ctor_with_super ?(params = []) ~cls ~super gen =
  B.constructor ~params ~cls (fun mb ->
      B.invoke mb ~base:(B.this mb) ~kind:Expr.Special
        ~callee:(Jsig.meth ~cls:super ~name:"<init>" ~params:[] ~ret:void)
        ~args:[] ();
      gen mb)

let plain_ctor ~cls ~super = ctor_with_super ~cls ~super (fun _ -> ())

(** Activity class with a generated [onCreate] plus its manifest entry. *)
let make_activity ?(extra_methods = fun _cls -> []) ?(register = true) ctx
    ~simple ~on_create () =
  let cls = ctx.ns ^ "." ^ simple in
  let klass =
    Jclass.make ~super:(Some "android.app.Activity") cls
      ~methods:
        (plain_ctor ~cls ~super:"android.app.Activity"
         :: B.method_ ~cls ~name:"onCreate" ~params:[ Api.bundle_t ] ~ret:void
              on_create
         :: extra_methods cls)
  in
  let comps =
    if register then [ Component.make ~kind:Component.Activity cls ] else []
  in
  klass, comps

(** The security-relevant value passed to the sink.  May need auxiliary app
    classes (e.g. a trust-all verifier); returns the value's local, the extra
    classes and the ground-truth spec string. *)
let spec_value ctx mb (sink : Sinks.t) ~insecure =
  let is api = Jsig.meth_equal sink.msig api in
  if is Api.cipher_get_instance then
    let s = if insecure then "AES/ECB/PKCS5Padding" else "AES/GCM/NoPadding" in
    B.const_str mb s, [], s
  else if is Api.ssl_set_hostname_verifier then
    if insecure then
      B.sget mb Api.allow_all_hostname_verifier, [], "ALLOW_ALL_HOSTNAME_VERIFIER"
    else
      ( B.new_obj mb "org.apache.http.conn.ssl.StrictHostnameVerifier"
          ~ctor_params:[] ~args:[],
        [], "StrictHostnameVerifier" )
  else if is Api.https_set_hostname_verifier then begin
    (* javax.net.ssl.HttpsURLConnection variant: pass an app-defined verifier
       whose [verify] returns a constant. *)
    let vcls =
      ctx.ns ^ "." ^ (if insecure then "TrustAllVerifier" else "StrictVerifier")
    in
    let verify =
      B.method_ ~cls:vcls ~name:"verify" ~params:[ Types.string_ ]
        ~ret:Types.Boolean (fun mb ->
          B.return_val mb (Value.Const (Value.Int_c (if insecure then 1 else 0))))
    in
    let klass =
      Jclass.make ~interfaces:[ "javax.net.ssl.HostnameVerifier" ] vcls
        ~methods:[ plain_ctor ~cls:vcls ~super:"java.lang.Object"; verify ]
    in
    B.new_obj mb vcls ~ctor_params:[] ~args:[], [ klass ], vcls
  end
  else if is Api.sms_send_text_message then
    let s = if insecure then "premium-text" else "hello" in
    B.const_str mb s, [], s
  else if is Api.server_socket_init then
    let port = if insecure then 8080 else 8443 in
    B.const_int mb port, [], string_of_int port
  else if is Api.local_server_socket_init then
    let s = if insecure then "open-socket" else "private-socket" in
    B.const_str mb s, [], s
  else if is Api.webview_set_javascript_enabled then
    let b = if insecure then 1 else 0 in
    B.const_int mb b, [], string_of_int b
  else if is Api.webview_add_javascript_interface then
    (* the backtracked argument is the bridge name string *)
    let s = if insecure then "bridge" else "inert" in
    B.const_str mb s, [], s
  else if is Api.sqlite_raw_query then
    let s = "SELECT * FROM items" in
    B.const_str mb s, [], s
  else if is Api.context_start_activity then
    ( B.new_obj mb "android.content.Intent" ~ctor_params:[] ~args:[],
      [], "android.content.Intent" )
  else
    invalid_arg
      (Printf.sprintf "Templates.spec_value: no value template for sink %s"
         sink.Sinks.name)

(** IR type of the value a sink-bound chain passes along. *)
let chain_ty (sink : Sinks.t) = List.nth sink.msig.Jsig.params sink.param_index

(** Emit the sink API call itself, consuming [value]. *)
let emit_sink mb (sink : Sinks.t) ~value =
  let v = Value.Local value in
  let is api = Jsig.meth_equal sink.msig api in
  if is Api.cipher_get_instance then
    ignore (B.invoke_ret mb ~kind:Expr.Static ~callee:sink.msig ~args:[ v ] ())
  else if is Api.ssl_set_hostname_verifier then begin
    let f =
      B.invoke_ret mb ~kind:Expr.Static
        ~callee:
          (Jsig.meth ~cls:"org.apache.http.conn.ssl.SSLSocketFactory"
             ~name:"getSocketFactory" ~params:[] ~ret:Api.ssl_socket_factory_t)
        ~args:[] ()
    in
    B.call_virtual mb ~base:f ~callee:sink.msig ~args:[ v ]
  end
  else if is Api.https_set_hostname_verifier then begin
    let conn =
      B.new_obj mb "javax.net.ssl.HttpsURLConnection" ~ctor_params:[] ~args:[]
    in
    B.call_virtual mb ~base:conn ~callee:sink.msig ~args:[ v ]
  end
  else if is Api.sms_send_text_message then begin
    let mgr =
      B.invoke_ret mb ~kind:Expr.Static ~callee:Api.sms_get_default ~args:[] ()
    in
    let null = Value.Const Value.Null in
    B.call_virtual mb ~base:mgr ~callee:sink.msig ~args:[ null; null; v; null; null ]
  end
  else if is Api.server_socket_init then
    ignore
      (B.new_obj mb "java.net.ServerSocket" ~ctor_params:[ Types.Int ]
         ~args:[ v ])
  else if is Api.local_server_socket_init then
    ignore
      (B.new_obj mb "android.net.LocalServerSocket" ~ctor_params:[ Types.string_ ]
         ~args:[ v ])
  else if is Api.webview_set_javascript_enabled then begin
    let w = B.new_obj mb "android.webkit.WebView" ~ctor_params:[] ~args:[] in
    B.call_virtual mb ~base:w ~callee:sink.msig ~args:[ v ]
  end
  else if is Api.webview_add_javascript_interface then begin
    let w = B.new_obj mb "android.webkit.WebView" ~ctor_params:[] ~args:[] in
    let o = B.new_obj mb "java.lang.Object" ~ctor_params:[] ~args:[] in
    B.call_virtual mb ~base:w ~callee:sink.msig ~args:[ Value.Local o; v ]
  end
  else if is Api.sqlite_raw_query then begin
    let db =
      B.new_obj mb "android.database.sqlite.SQLiteDatabase" ~ctor_params:[]
        ~args:[]
    in
    ignore
      (B.invoke_ret mb ~base:db ~kind:Expr.Virtual ~callee:sink.msig
         ~args:[ v; Value.Const Value.Null ] ())
  end
  else if is Api.context_start_activity then begin
    let recv =
      B.new_obj mb "android.app.Activity" ~ctor_params:[] ~args:[]
    in
    B.call_virtual mb ~base:recv ~callee:sink.msig ~args:[ v ]
  end
  else
    invalid_arg
      (Printf.sprintf "Templates.emit_sink: no call template for sink %s"
         sink.Sinks.name)

(** A chain of [n] public-static hop methods [step0 .. step(n-1)] in class
    [cls]; each passes its parameter to the next, the last runs [last].
    Returns the class and the signature of [step0]. *)
let static_chain ~cls ~ty ~n ~last =
  let step i = Jsig.meth ~cls ~name:(Printf.sprintf "step%d" i) ~params:[ ty ] ~ret:void in
  let methods =
    List.init n (fun i ->
        B.method_ ~access:B.static_access ~cls ~name:(Printf.sprintf "step%d" i)
          ~params:[ ty ] ~ret:void (fun mb ->
            let p = B.param mb 0 in
            if i = n - 1 then last mb p
            else
              B.call_static mb ~callee:(step (i + 1)) ~args:[ Value.Local p ]))
  in
  Jclass.make cls ~methods:(plain_ctor ~cls ~super:"java.lang.Object" :: methods),
  step 0

let mk_planted ?reachable ctx shape sink ~insecure ~spec ~sink_class =
  ignore ctx;
  { shape; sink; insecure;
    reachable = Option.value ~default:(Shape.reachable shape) reachable;
    spec; sink_class }

(* ------------------------------------------------------------------ *)
(* Shape implementations                                               *)

(** entry activity onCreate → private doWork(v) → static chain → sink *)
let plant_direct ctx ~sink ~insecure =
  let ty = chain_ty sink in
  let extra = ref [] in
  let spec = ref "" in
  let chain_cls = ctx.ns ^ ".util.Chain" in
  let chain_klass, chain_head =
    static_chain ~cls:chain_cls ~ty ~n:(2 + Rng.int ctx.rng 3)
      ~last:(fun mb p -> emit_sink mb sink ~value:p)
  in
  let act_cls = ctx.ns ^ ".MainActivity" in
  let act, comps =
    make_activity ctx ~simple:"MainActivity"
      ~extra_methods:(fun cls ->
        [ B.method_ ~access:B.private_access ~cls ~name:"doWork" ~params:[ ty ]
            ~ret:void (fun mb ->
              B.call_static mb ~callee:chain_head
                ~args:[ Value.Local (B.param mb 0) ]) ])
      ~on_create:(fun mb ->
        let v, cs, s = spec_value ctx mb sink ~insecure in
        extra := cs;
        spec := s;
        (* private callee: javac emits invoke-direct *)
        B.invoke mb ~base:(B.this mb) ~kind:Expr.Special
          ~callee:(Jsig.meth ~cls:act_cls ~name:"doWork" ~params:[ ty ] ~ret:void)
          ~args:[ Value.Local v ] ())
      ()
  in
  { classes = act :: chain_klass :: !extra;
    components = comps;
    planted =
      mk_planted ctx Shape.Direct sink ~insecure ~spec:!spec ~sink_class:chain_cls }

(** entry → static chain only *)
let plant_static_chain ctx ~sink ~insecure =
  let ty = chain_ty sink in
  let extra = ref [] and spec = ref "" in
  let chain_cls = ctx.ns ^ ".util.SChain" in
  let chain_klass, chain_head =
    static_chain ~cls:chain_cls ~ty ~n:(3 + Rng.int ctx.rng 3)
      ~last:(fun mb p -> emit_sink mb sink ~value:p)
  in
  let act, comps =
    make_activity ctx ~simple:"SMainActivity"
      ~on_create:(fun mb ->
        let v, cs, s = spec_value ctx mb sink ~insecure in
        extra := cs;
        spec := s;
        B.call_static mb ~callee:chain_head ~args:[ Value.Local v ])
      ()
  in
  { classes = act :: chain_klass :: !extra;
    components = comps;
    planted =
      mk_planted ctx Shape.Static_chain sink ~insecure ~spec:!spec
        ~sink_class:chain_cls }

(** Base.start(v) has the sink; Child extends Base without overriding; the
    caller invokes through a Child-typed receiver. *)
let plant_child_class ctx ~sink ~insecure =
  let ty = chain_ty sink in
  let extra = ref [] and spec = ref "" in
  let base_cls = ctx.ns ^ ".server.BaseServer" in
  let child_cls = ctx.ns ^ ".server.ChildServer" in
  let base =
    Jclass.make base_cls
      ~methods:
        [ plain_ctor ~cls:base_cls ~super:"java.lang.Object";
          B.method_ ~cls:base_cls ~name:"start" ~params:[ ty ] ~ret:void
            (fun mb -> emit_sink mb sink ~value:(B.param mb 0)) ]
  in
  let child =
    Jclass.make ~super:(Some base_cls) child_cls
      ~methods:[ plain_ctor ~cls:child_cls ~super:base_cls ]
  in
  let act, comps =
    make_activity ctx ~simple:"CMainActivity"
      ~on_create:(fun mb ->
        let v, cs, s = spec_value ctx mb sink ~insecure in
        extra := cs;
        spec := s;
        let srv = B.new_obj mb child_cls ~ctor_params:[] ~args:[] in
        (* invocation is emitted against the child class signature *)
        B.call_virtual mb ~base:srv
          ~callee:(Jsig.meth ~cls:child_cls ~name:"start" ~params:[ ty ] ~ret:void)
          ~args:[ Value.Local v ])
      ()
  in
  { classes = act :: base :: child :: !extra;
    components = comps;
    planted =
      mk_planted ctx Shape.Child_class sink ~insecure ~spec:!spec
        ~sink_class:base_cls }

(** NetServer overrides SuperServer.start; call goes through the super-class
    type, so the callee's own signature never appears in the bytecode. *)
let plant_super_class ctx ~sink ~insecure =
  let ty = chain_ty sink in
  let extra = ref [] and spec = ref "" in
  let super_cls = ctx.ns ^ ".server.SuperServer" in
  let net_cls = ctx.ns ^ ".server.NetServer" in
  let super_k =
    Jclass.make ~is_abstract:true super_cls
      ~methods:
        [ plain_ctor ~cls:super_cls ~super:"java.lang.Object";
          B.abstract_method ~cls:super_cls ~name:"start" ~params:[ ty ] ~ret:void ]
  in
  let net =
    Jclass.make ~super:(Some super_cls) net_cls
      ~methods:
        [ plain_ctor ~cls:net_cls ~super:super_cls;
          B.method_ ~cls:net_cls ~name:"start" ~params:[ ty ] ~ret:void
            (fun mb -> emit_sink mb sink ~value:(B.param mb 0)) ]
  in
  let act, comps =
    make_activity ctx ~simple:"SuMainActivity"
      ~on_create:(fun mb ->
        let v, cs, s = spec_value ctx mb sink ~insecure in
        extra := cs;
        spec := s;
        let srv = B.new_obj mb net_cls ~ctor_params:[] ~args:[] in
        let up = B.assign mb (Types.Object super_cls) (Expr.Imm (Value.Local srv)) in
        B.call_virtual mb ~base:up
          ~callee:(Jsig.meth ~cls:super_cls ~name:"start" ~params:[ ty ] ~ret:void)
          ~args:[ Value.Local v ])
      ()
  in
  { classes = act :: super_k :: net :: !extra;
    components = comps;
    planted =
      mk_planted ctx Shape.Super_class sink ~insecure ~spec:!spec
        ~sink_class:net_cls }

(** TaskImpl implements an app interface; call goes through the interface. *)
let plant_interface ctx ~sink ~insecure =
  let ty = chain_ty sink in
  let extra = ref [] and spec = ref "" in
  let iface_cls = ctx.ns ^ ".task.Task" in
  let impl_cls = ctx.ns ^ ".task.TaskImpl" in
  let iface =
    Jclass.make ~is_interface:true iface_cls
      ~methods:[ B.abstract_method ~cls:iface_cls ~name:"perform" ~params:[ ty ] ~ret:void ]
  in
  let impl =
    Jclass.make ~interfaces:[ iface_cls ] impl_cls
      ~methods:
        [ plain_ctor ~cls:impl_cls ~super:"java.lang.Object";
          B.method_ ~cls:impl_cls ~name:"perform" ~params:[ ty ] ~ret:void
            (fun mb -> emit_sink mb sink ~value:(B.param mb 0)) ]
  in
  let act, comps =
    make_activity ctx ~simple:"IMainActivity"
      ~on_create:(fun mb ->
        let v, cs, s = spec_value ctx mb sink ~insecure in
        extra := cs;
        spec := s;
        let t = B.new_obj mb impl_cls ~ctor_params:[] ~args:[] in
        let ti = B.assign mb (Types.Object iface_cls) (Expr.Imm (Value.Local t)) in
        B.call_interface mb ~base:ti
          ~callee:(Jsig.meth ~cls:iface_cls ~name:"perform" ~params:[ ty ] ~ret:void)
          ~args:[ Value.Local v ])
      ()
  in
  { classes = act :: iface :: impl :: !extra;
    components = comps;
    planted =
      mk_planted ctx Shape.Interface_dispatch sink ~insecure ~spec:!spec
        ~sink_class:impl_cls }

(** A listener class storing the value in a field; flow continues in
    [onClick] after registration via [setOnClickListener]. *)
let plant_callback ctx ~sink ~insecure =
  let ty = chain_ty sink in
  let extra = ref [] and spec = ref "" in
  let l_cls = ctx.ns ^ ".ui.ClickHandler" in
  let fld = Jsig.field ~cls:l_cls ~name:"spec" ~ty in
  let listener =
    Jclass.make ~interfaces:[ "android.view.View$OnClickListener" ] l_cls
      ~fields:[ fld ]
      ~methods:
        [ ctor_with_super ~params:[ ty ] ~cls:l_cls ~super:"java.lang.Object"
            (fun mb -> B.iput mb (B.this mb) fld (Value.Local (B.param mb 0)));
          B.method_ ~cls:l_cls ~name:"onClick" ~params:[ Api.view_t ] ~ret:void
            (fun mb ->
              let v = B.iget mb (B.this mb) fld in
              emit_sink mb sink ~value:v) ]
  in
  let act, comps =
    make_activity ctx ~simple:"UiMainActivity"
      ~on_create:(fun mb ->
        let v, cs, s = spec_value ctx mb sink ~insecure in
        extra := cs;
        spec := s;
        let view = B.new_obj mb "android.view.View" ~ctor_params:[] ~args:[] in
        let h = B.new_obj mb l_cls ~ctor_params:[ ty ] ~args:[ Value.Local v ] in
        B.call_virtual mb ~base:view ~callee:Api.view_set_on_click_listener
          ~args:[ Value.Local h ])
      ()
  in
  { classes = act :: listener :: !extra;
    components = comps;
    planted =
      mk_planted ctx Shape.Callback sink ~insecure ~spec:!spec ~sink_class:l_cls }

(** Runnable job passed to [new Thread(job).start()]. *)
let plant_async_thread ctx ~sink ~insecure =
  let ty = chain_ty sink in
  let extra = ref [] and spec = ref "" in
  let j_cls = ctx.ns ^ ".job.Job" in
  let fld = Jsig.field ~cls:j_cls ~name:"spec" ~ty in
  let job =
    Jclass.make ~interfaces:[ "java.lang.Runnable" ] j_cls ~fields:[ fld ]
      ~methods:
        [ ctor_with_super ~params:[ ty ] ~cls:j_cls ~super:"java.lang.Object"
            (fun mb -> B.iput mb (B.this mb) fld (Value.Local (B.param mb 0)));
          B.method_ ~cls:j_cls ~name:"run" ~params:[] ~ret:void (fun mb ->
              let v = B.iget mb (B.this mb) fld in
              emit_sink mb sink ~value:v) ]
  in
  let act, comps =
    make_activity ctx ~simple:"ThMainActivity"
      ~on_create:(fun mb ->
        let v, cs, s = spec_value ctx mb sink ~insecure in
        extra := cs;
        spec := s;
        let j = B.new_obj mb j_cls ~ctor_params:[ ty ] ~args:[ Value.Local v ] in
        let t =
          B.new_obj mb "java.lang.Thread" ~ctor_params:[ Api.runnable_t ]
            ~args:[ Value.Local j ]
        in
        B.call_virtual mb ~base:t ~callee:Api.thread_start ~args:[])
      ()
  in
  { classes = act :: job :: !extra;
    components = comps;
    planted =
      mk_planted ctx Shape.Async_thread sink ~insecure ~spec:!spec
        ~sink_class:j_cls }

(** The Fig. 4 pattern: runnable handed through a util chain that ends in
    [Executor.execute]. *)
let plant_async_executor ctx ~sink ~insecure =
  let ty = chain_ty sink in
  let extra = ref [] and spec = ref "" in
  let j_cls = ctx.ns ^ ".svc.ConnectJob" in
  let u_cls = ctx.ns ^ ".svc.Util" in
  let fld = Jsig.field ~cls:j_cls ~name:"spec" ~ty in
  let job =
    Jclass.make ~interfaces:[ "java.lang.Runnable" ] j_cls ~fields:[ fld ]
      ~methods:
        [ ctor_with_super ~params:[ ty ] ~cls:j_cls ~super:"java.lang.Object"
            (fun mb -> B.iput mb (B.this mb) fld (Value.Local (B.param mb 0)));
          B.method_ ~cls:j_cls ~name:"run" ~params:[] ~ret:void (fun mb ->
              let v = B.iget mb (B.this mb) fld in
              emit_sink mb sink ~value:v) ]
  in
  let run_bg1 =
    Jsig.meth ~cls:u_cls ~name:"runInBackground" ~params:[ Api.runnable_t ]
      ~ret:void
  in
  let run_bg2 =
    Jsig.meth ~cls:u_cls ~name:"runInBackground"
      ~params:[ Api.runnable_t; Types.Boolean ] ~ret:void
  in
  let util =
    Jclass.make u_cls
      ~methods:
        [ B.method_ ~access:B.static_access ~cls:u_cls ~name:"runInBackground"
            ~params:[ Api.runnable_t ] ~ret:void (fun mb ->
              B.call_static mb ~callee:run_bg2
                ~args:[ Value.Local (B.param mb 0); Value.Const (Value.Int_c 1) ]);
          B.method_ ~access:B.static_access ~cls:u_cls ~name:"runInBackground"
            ~params:[ Api.runnable_t; Types.Boolean ] ~ret:void (fun mb ->
              let ex =
                B.invoke_ret mb ~kind:Expr.Static ~callee:Api.executors_new_single
                  ~args:[] ()
              in
              B.call_interface mb ~base:ex ~callee:Api.executor_execute
                ~args:[ Value.Local (B.param mb 0) ]) ]
  in
  let act, comps =
    make_activity ctx ~simple:"ExMainActivity"
      ~on_create:(fun mb ->
        let v, cs, s = spec_value ctx mb sink ~insecure in
        extra := cs;
        spec := s;
        let j = B.new_obj mb j_cls ~ctor_params:[ ty ] ~args:[ Value.Local v ] in
        B.call_static mb ~callee:run_bg1 ~args:[ Value.Local j ])
      ()
  in
  { classes = act :: job :: util :: !extra;
    components = comps;
    planted =
      mk_planted ctx Shape.Async_executor sink ~insecure ~spec:!spec
        ~sink_class:j_cls }

(** AsyncTask subclass; flow continues in [doInBackground]. *)
let plant_async_task ctx ~sink ~insecure =
  let ty = chain_ty sink in
  let extra = ref [] and spec = ref "" in
  let t_cls = ctx.ns ^ ".task.UploadTask" in
  let fld = Jsig.field ~cls:t_cls ~name:"spec" ~ty in
  let task =
    Jclass.make ~super:(Some "android.os.AsyncTask") t_cls ~fields:[ fld ]
      ~methods:
        [ ctor_with_super ~params:[ ty ] ~cls:t_cls ~super:"android.os.AsyncTask"
            (fun mb -> B.iput mb (B.this mb) fld (Value.Local (B.param mb 0)));
          B.method_ ~cls:t_cls ~name:"doInBackground"
            ~params:[ Types.Array Types.object_ ] ~ret:Types.object_ (fun mb ->
              let v = B.iget mb (B.this mb) fld in
              emit_sink mb sink ~value:v;
              B.return_val mb (Value.Const Value.Null)) ]
  in
  let act, comps =
    make_activity ctx ~simple:"AtMainActivity"
      ~on_create:(fun mb ->
        let v, cs, s = spec_value ctx mb sink ~insecure in
        extra := cs;
        spec := s;
        let t = B.new_obj mb t_cls ~ctor_params:[ ty ] ~args:[ Value.Local v ] in
        let args =
          B.assign mb (Types.Array Types.object_)
            (Expr.New_array (Types.object_, Value.Const (Value.Int_c 0)))
        in
        ignore
          (B.invoke_ret mb ~base:t ~kind:Expr.Virtual ~callee:Api.async_task_execute
             ~args:[ Value.Local args ] ()))
      ()
  in
  { classes = act :: task :: !extra;
    components = comps;
    planted =
      mk_planted ctx Shape.Async_task sink ~insecure ~spec:!spec
        ~sink_class:t_cls }

(** Sink under a <clinit>; reachability decided by the recursive class-use
    search.  [reachable] controls whether an entry class transitively uses
    the initialized class. *)
let plant_static_init ?(reachable = true) ctx ~sink ~insecure =
  let extra = ref [] and spec = ref "" in
  let api_cls = ctx.ns ^ ".internal.ApiClient" in
  let model_cls = ctx.ns ^ ".model.AdModel" in
  let cfg_fld = Jsig.field ~cls:api_cls ~name:"CONFIG" ~ty:Types.string_ in
  let setup =
    Jsig.meth ~cls:api_cls ~name:"setup" ~params:[ chain_ty sink ] ~ret:void
  in
  (* spec_value needs a builder; create the <clinit> which embeds it *)
  let clinit =
    B.clinit ~cls:api_cls (fun mb ->
        let v, cs, s = spec_value ctx mb sink ~insecure in
        extra := cs;
        spec := s;
        let c = B.const_str mb "configured" in
        B.sput mb cfg_fld (Value.Local c);
        B.call_static mb ~callee:setup ~args:[ Value.Local v ])
  in
  let api =
    Jclass.make api_cls ~fields:[ cfg_fld ]
      ~methods:
        [ clinit;
          B.method_
            ~access:{ B.static_access with Jmethod.is_private = true; is_public = false }
            ~cls:api_cls ~name:"setup" ~params:[ chain_ty sink ] ~ret:void
            (fun mb -> emit_sink mb sink ~value:(B.param mb 0)) ]
  in
  let model =
    Jclass.make model_cls
      ~methods:
        [ plain_ctor ~cls:model_cls ~super:"java.lang.Object";
          B.method_ ~cls:model_cls ~name:"load" ~params:[] ~ret:void (fun mb ->
              ignore (B.sget mb cfg_fld)) ]
  in
  let act, comps =
    make_activity ctx ~simple:"CiMainActivity"
      ~on_create:(fun mb ->
        if reachable then begin
          let m = B.new_obj mb model_cls ~ctor_params:[] ~args:[] in
          B.call_virtual mb ~base:m
            ~callee:(Jsig.meth ~cls:model_cls ~name:"load" ~params:[] ~ret:void)
            ~args:[]
        end
        else ignore (B.const_int mb 0))
      ()
  in
  { classes = act :: api :: model :: !extra;
    components = comps;
    planted =
      mk_planted ~reachable ctx Shape.Static_init sink ~insecure ~spec:!spec
        ~sink_class:api_cls }

(** Sink parameter read from a static field whose value is only assigned in
    an off-path <clinit> (Fig. 6's MP3LocalServer.PORT pattern). *)
let plant_clinit_field ctx ~sink ~insecure =
  let ty = chain_ty sink in
  let srv_cls = ctx.ns ^ ".net.Mp3Server" in
  let spec_fld = Jsig.field ~cls:srv_cls ~name:"SPEC" ~ty in
  let spec = ref "" in
  let extra = ref [] in
  let clinit =
    B.clinit ~cls:srv_cls (fun mb ->
        let v, cs, s = spec_value ctx mb sink ~insecure in
        extra := cs;
        spec := s;
        B.sput mb spec_fld (Value.Local v))
  in
  let server =
    Jclass.make srv_cls ~fields:[ spec_fld ]
      ~methods:
        [ plain_ctor ~cls:srv_cls ~super:"java.lang.Object";
          clinit;
          B.method_ ~access:B.static_access ~cls:srv_cls ~name:"startServer"
            ~params:[] ~ret:void (fun mb ->
              let v = B.sget mb spec_fld in
              emit_sink mb sink ~value:v) ]
  in
  let act, comps =
    make_activity ctx ~simple:"NetMainActivity"
      ~on_create:(fun mb ->
        B.call_static mb
          ~callee:(Jsig.meth ~cls:srv_cls ~name:"startServer" ~params:[] ~ret:void)
          ~args:[])
      ()
  in
  { classes = act :: server :: !extra;
    components = comps;
    planted =
      mk_planted ctx Shape.Clinit_field sink ~insecure ~spec:!spec
        ~sink_class:srv_cls }

(** Explicit ICC: the activity starts a service with an Intent extra; the
    sink consumes the extra in [onStartCommand]. *)
let plant_icc_explicit ctx ~sink ~insecure =
  (* ICC carries strings; only string-parameter sinks use this shape *)
  let svc_cls = ctx.ns ^ ".fota.HttpServerService" in
  let extra = ref [] and spec = ref "" in
  let svc =
    Jclass.make ~super:(Some "android.app.Service") svc_cls
      ~methods:
        [ plain_ctor ~cls:svc_cls ~super:"android.app.Service";
          B.method_ ~cls:svc_cls ~name:"onStartCommand"
            ~params:[ Api.intent_t; Types.Int; Types.Int ] ~ret:Types.Int
            (fun mb ->
              let intent = B.param mb 0 in
              let key = B.const_str mb "spec" in
              let v =
                B.invoke_ret mb ~base:intent ~kind:Expr.Virtual
                  ~callee:Api.intent_get_string_extra ~args:[ Value.Local key ] ()
              in
              emit_sink mb sink ~value:v;
              B.return_val mb (Value.Const (Value.Int_c 1))) ]
  in
  let act, comps =
    make_activity ctx ~simple:"IccMainActivity"
      ~on_create:(fun mb ->
        let v, cs, s = spec_value ctx mb sink ~insecure in
        extra := cs;
        spec := s;
        let cls_c = B.const_class mb svc_cls in
        let intent =
          B.new_obj mb "android.content.Intent"
            ~ctor_params:[ Api.context_t; Types.Object "java.lang.Class" ]
            ~args:[ Value.Local (B.this mb); Value.Local cls_c ]
        in
        let key = B.const_str mb "spec" in
        ignore
          (B.invoke_ret mb ~base:intent ~kind:Expr.Virtual
             ~callee:Api.intent_put_extra ~args:[ Value.Local key; Value.Local v ]
             ());
        B.invoke mb ~base:(B.this mb) ~kind:Expr.Virtual
          ~callee:Api.context_start_service ~args:[ Value.Local intent ] ())
      ()
  in
  let comps = Component.make ~kind:Component.Service svc_cls :: comps in
  { classes = act :: svc :: !extra;
    components = comps;
    planted =
      mk_planted ctx Shape.Icc_explicit sink ~insecure ~spec:!spec
        ~sink_class:svc_cls }

(** Implicit ICC via a broadcast action string. *)
let plant_icc_implicit ctx ~sink ~insecure =
  let action = ctx.ns ^ ".ACTION_CONFIGURE" in
  let rcv_cls = ctx.ns ^ ".rcv.ConfigReceiver" in
  let extra = ref [] and spec = ref "" in
  let rcv =
    Jclass.make ~super:(Some "android.content.BroadcastReceiver") rcv_cls
      ~methods:
        [ plain_ctor ~cls:rcv_cls ~super:"android.content.BroadcastReceiver";
          B.method_ ~cls:rcv_cls ~name:"onReceive"
            ~params:[ Api.context_t; Api.intent_t ] ~ret:void (fun mb ->
              let intent = B.param mb 1 in
              let key = B.const_str mb "spec" in
              let v =
                B.invoke_ret mb ~base:intent ~kind:Expr.Virtual
                  ~callee:Api.intent_get_string_extra ~args:[ Value.Local key ] ()
              in
              emit_sink mb sink ~value:v) ]
  in
  let act, comps =
    make_activity ctx ~simple:"BcMainActivity"
      ~on_create:(fun mb ->
        let v, cs, s = spec_value ctx mb sink ~insecure in
        extra := cs;
        spec := s;
        let intent =
          B.new_obj mb "android.content.Intent" ~ctor_params:[] ~args:[]
        in
        let act_s = B.const_str mb action in
        ignore
          (B.invoke_ret mb ~base:intent ~kind:Expr.Virtual
             ~callee:Api.intent_set_action ~args:[ Value.Local act_s ] ());
        let key = B.const_str mb "spec" in
        ignore
          (B.invoke_ret mb ~base:intent ~kind:Expr.Virtual
             ~callee:Api.intent_put_extra ~args:[ Value.Local key; Value.Local v ]
             ());
        B.invoke mb ~base:(B.this mb) ~kind:Expr.Virtual
          ~callee:Api.context_send_broadcast ~args:[ Value.Local intent ] ())
      ()
  in
  let comps =
    Component.make ~kind:Component.Receiver ~actions:[ action ] rcv_cls :: comps
  in
  { classes = act :: rcv :: !extra;
    components = comps;
    planted =
      mk_planted ctx Shape.Icc_implicit sink ~insecure ~spec:!spec
        ~sink_class:rcv_cls }

(** Value stored into an activity field in [onCreate], consumed by the sink
    in [onResume] — exercises the lifecycle-handler search. *)
let plant_lifecycle_field ctx ~sink ~insecure =
  let ty = chain_ty sink in
  let act_cls = ctx.ns ^ ".LcMainActivity" in
  let fld = Jsig.field ~cls:act_cls ~name:"spec" ~ty in
  let extra = ref [] and spec = ref "" in
  let on_resume =
    B.method_ ~cls:act_cls ~name:"onResume" ~params:[] ~ret:void (fun mb ->
        let v = B.iget mb (B.this mb) fld in
        emit_sink mb sink ~value:v)
  in
  let klass =
    Jclass.make ~super:(Some "android.app.Activity") act_cls ~fields:[ fld ]
      ~methods:
        [ plain_ctor ~cls:act_cls ~super:"android.app.Activity";
          B.method_ ~cls:act_cls ~name:"onCreate" ~params:[ Api.bundle_t ]
            ~ret:void (fun mb ->
              let v, cs, s = spec_value ctx mb sink ~insecure in
              extra := cs;
              spec := s;
              B.iput mb (B.this mb) fld (Value.Local v));
          on_resume ]
  in
  { classes = klass :: !extra;
    components = [ Component.make ~kind:Component.Activity act_cls ];
    planted =
      mk_planted ctx Shape.Lifecycle_field sink ~insecure ~spec:!spec
        ~sink_class:act_cls }

(** Sink inside a method that nothing ever calls. *)
let plant_dead_code ctx ~sink ~insecure =
  let cls = ctx.ns ^ ".dead.DeadHelper" in
  let extra = ref [] and spec = ref "" in
  let klass =
    Jclass.make cls
      ~methods:
        [ plain_ctor ~cls ~super:"java.lang.Object";
          B.method_ ~cls ~name:"unused" ~params:[] ~ret:void (fun mb ->
              let v, cs, s = spec_value ctx mb sink ~insecure in
              extra := cs;
              spec := s;
              (* two sink calls in one method (the if-else pattern of
                 Sec. IV-F): the second hits the sink-API-call cache *)
              emit_sink mb sink ~value:v;
              emit_sink mb sink ~value:v) ]
  in
  (* a registered activity exists but never references DeadHelper *)
  let act, comps =
    make_activity ctx ~simple:"DdMainActivity"
      ~on_create:(fun mb -> ignore (B.const_int mb 0))
      ()
  in
  { classes = act :: klass :: !extra;
    components = comps;
    planted =
      mk_planted ctx Shape.Dead_code sink ~insecure ~spec:!spec ~sink_class:cls }

(** Activity subclass with a sink flow that is NOT registered in the
    manifest — the deactivated-component false-positive class. *)
let plant_unregistered ctx ~sink ~insecure =
  let extra = ref [] and spec = ref "" in
  let ghost, _ =
    make_activity ctx ~simple:"ghost.TstoreActivation" ~register:false
      ~on_create:(fun mb ->
        let v, cs, s = spec_value ctx mb sink ~insecure in
        extra := cs;
        spec := s;
        emit_sink mb sink ~value:v)
      ()
  in
  let act, comps =
    make_activity ctx ~simple:"UrMainActivity"
      ~on_create:(fun mb -> ignore (B.const_int mb 0))
      ()
  in
  { classes = act :: ghost :: !extra;
    components = comps;
    planted =
      mk_planted ctx Shape.Unregistered_component sink ~insecure ~spec:!spec
        ~sink_class:(ctx.ns ^ ".ghost.TstoreActivation") }

(** Sink inside one of the library packages Amandroid's liblist skips. *)
let skipped_lib_packages =
  [ "com.tencent.smtt.utils";
    "com.amazon.identity.frc.helper";
    "com.facebook.ads.internal";
    "com.flurry.sdk";
    "com.google.ads.util" ]

let plant_skipped_lib ctx ~sink ~insecure =
  let pkg = Rng.choose ctx.rng skipped_lib_packages in
  (* suffix the class with the namespace tail to keep names unique per plant *)
  let tag =
    String.map (fun c -> if c = '.' then '_' else c) ctx.ns
  in
  let cls = Printf.sprintf "%s.Helper_%s" pkg tag in
  let ty = chain_ty sink in
  let extra = ref [] and spec = ref "" in
  let lib =
    Jclass.make cls
      ~methods:
        [ plain_ctor ~cls ~super:"java.lang.Object";
          B.method_ ~access:B.static_access ~cls ~name:"encrypt" ~params:[ ty ]
            ~ret:void (fun mb -> emit_sink mb sink ~value:(B.param mb 0)) ]
  in
  let act, comps =
    make_activity ctx ~simple:"LibMainActivity"
      ~on_create:(fun mb ->
        let v, cs, s = spec_value ctx mb sink ~insecure in
        extra := cs;
        spec := s;
        B.call_static mb
          ~callee:(Jsig.meth ~cls ~name:"encrypt" ~params:[ ty ] ~ret:void)
          ~args:[ Value.Local v ])
      ()
  in
  { classes = act :: lib :: !extra;
    components = comps;
    planted =
      mk_planted ctx Shape.Skipped_lib sink ~insecure ~spec:!spec ~sink_class:cls }

(** The documented BackDroid FN: the sink API is only invoked through an app
    subclass of the sink's system class, so the initial search for the system
    signature finds nothing. *)
let plant_subclassed_sink ctx ~sink ~insecure =
  (* only meaningful for instance sinks on subclassable classes *)
  let sink_sys_cls = sink.Sinks.msig.Jsig.cls in
  let sub_cls = ctx.ns ^ ".http.DefaultSSLSocketFactory" in
  let ty = chain_ty sink in
  let extra = ref [] and spec = ref "" in
  let sub =
    Jclass.make ~super:(Some sink_sys_cls) sub_cls
      ~methods:[ plain_ctor ~cls:sub_cls ~super:sink_sys_cls ]
  in
  let act, comps =
    make_activity ctx ~simple:"SubMainActivity"
      ~on_create:(fun mb ->
        let v, cs, s = spec_value ctx mb sink ~insecure in
        extra := cs;
        spec := s;
        let f = B.new_obj mb sub_cls ~ctor_params:[] ~args:[] in
        (* the invocation is emitted against the subclass signature *)
        B.call_virtual mb ~base:f
          ~callee:{ sink.Sinks.msig with Jsig.cls = sub_cls }
          ~args:[ Value.Local v ])
      ()
  in
  ignore ty;
  { classes = act :: sub :: !extra;
    components = comps;
    planted =
      mk_planted ctx Shape.Subclassed_sink sink ~insecure ~spec:!spec
        ~sink_class:sub_cls }

(** Mutually recursive methods on the sink path: [process] and [retry] call
    each other, and [wrap] recurses on itself behind a Phi, so both the
    cross-method and the inner dead-loop detectors of Sec. IV-F fire while
    the dataflow still resolves through the Phi's second operand. *)
let plant_recursive ctx ~sink ~insecure =
  let ty = chain_ty sink in
  let w_cls = ctx.ns ^ ".rec.Worker" in
  let extra = ref [] and spec = ref "" in
  let wrap_sig =
    Jsig.meth ~cls:w_cls ~name:"wrap" ~params:[ ty; Types.Int ] ~ret:ty
  in
  let process_sig =
    Jsig.meth ~cls:w_cls ~name:"process" ~params:[ ty; Types.Int ] ~ret:void
  in
  let retry_sig =
    Jsig.meth ~cls:w_cls ~name:"retry" ~params:[ ty; Types.Int ] ~ret:void
  in
  let worker =
    Jclass.make w_cls
      ~methods:
        [ B.method_ ~access:B.static_access ~cls:w_cls ~name:"wrap"
            ~params:[ ty; Types.Int ] ~ret:ty (fun mb ->
              let s = B.param mb 0 and n = B.param mb 1 in
              let n' =
                B.assign mb Types.Int
                  (Expr.Binop (Expr.Sub, Value.Local n, Value.Const (Value.Int_c 1)))
              in
              let r1 =
                B.invoke_ret mb ~kind:Expr.Static ~callee:wrap_sig
                  ~args:[ Value.Local s; Value.Local n' ] ()
              in
              let ret = B.assign mb ty (Expr.Phi [ r1; s ]) in
              B.return_val mb (Value.Local ret));
          B.method_ ~access:B.static_access ~cls:w_cls ~name:"process"
            ~params:[ ty; Types.Int ] ~ret:void (fun mb ->
              let s = B.param mb 0 and n = B.param mb 1 in
              let v =
                B.invoke_ret mb ~kind:Expr.Static ~callee:wrap_sig
                  ~args:[ Value.Local s; Value.Local n ] ()
              in
              B.call_static mb ~callee:retry_sig
                ~args:[ Value.Local v; Value.Local n ]);
          B.method_ ~access:B.static_access ~cls:w_cls ~name:"retry"
            ~params:[ ty; Types.Int ] ~ret:void (fun mb ->
              let v = B.param mb 0 and n = B.param mb 1 in
              let n' =
                B.assign mb Types.Int
                  (Expr.Binop (Expr.Sub, Value.Local n, Value.Const (Value.Int_c 1)))
              in
              B.call_static mb ~callee:process_sig
                ~args:[ Value.Local v; Value.Local n' ];
              emit_sink mb sink ~value:v) ]
  in
  let act, comps =
    make_activity ctx ~simple:"RecMainActivity"
      ~on_create:(fun mb ->
        let v, cs, s = spec_value ctx mb sink ~insecure in
        extra := cs;
        spec := s;
        let three = B.const_int mb 3 in
        B.call_static mb ~callee:process_sig
          ~args:[ Value.Local v; Value.Local three ])
      ()
  in
  { classes = act :: worker :: !extra;
    components = comps;
    planted =
      mk_planted ctx Shape.Recursive_chain sink ~insecure ~spec:!spec
        ~sink_class:w_cls }

(** A group of [count] sink calls behind one shared utility class: every
    activity calls [CryptoHub.route], which fans out to per-sink [encI]
    methods.  Backtracking each sink re-searches [route]'s callers, so the
    search-command cache gets the repeated hits of Sec. IV-F. *)
let plant_shared_group ctx ~sink ~insecure ~count =
  let count = max 1 count in
  let ty = chain_ty sink in
  let hub_cls = ctx.ns ^ ".shared.CryptoHub" in
  let enc_sig i =
    Jsig.meth ~cls:hub_cls ~name:(Printf.sprintf "enc%d" i) ~params:[ ty ]
      ~ret:void
  in
  let route_sig =
    Jsig.meth ~cls:hub_cls ~name:"route" ~params:[ ty ] ~ret:void
  in
  let hub =
    Jclass.make hub_cls
      ~methods:
        (plain_ctor ~cls:hub_cls ~super:"java.lang.Object"
         :: B.method_ ~access:B.static_access ~cls:hub_cls ~name:"route"
              ~params:[ ty ] ~ret:void (fun mb ->
                let v = B.param mb 0 in
                for i = 0 to count - 1 do
                  B.call_static mb ~callee:(enc_sig i) ~args:[ Value.Local v ]
                done)
         :: List.init count (fun i ->
                B.method_ ~access:B.static_access ~cls:hub_cls
                  ~name:(Printf.sprintf "enc%d" i) ~params:[ ty ] ~ret:void
                  (fun mb -> emit_sink mb sink ~value:(B.param mb 0))))
  in
  let extra = ref [] and spec = ref "" in
  let acts =
    List.init count (fun i ->
        make_activity ctx ~simple:(Printf.sprintf "ShMainActivity%d" i)
          ~on_create:(fun mb ->
            let v, cs, s = spec_value ctx mb sink ~insecure in
            extra := cs @ !extra;
            spec := s;
            B.call_static mb ~callee:route_sig ~args:[ Value.Local v ])
          ())
  in
  let planted =
    List.init count (fun _ ->
        mk_planted ctx Shape.Shared_util sink ~insecure ~spec:!spec
          ~sink_class:hub_cls)
  in
  ( (hub :: List.map fst acts) @ !extra,
    List.concat_map snd acts,
    planted )

(** The sink's containing method is only ever invoked through reflection:
    [Class.forName(...); getMethod("enc"); invoke(...)].  Invisible to the
    signature searches (and to CHA) unless reflection resolution rewrites it
    into a direct call first. *)
let plant_reflective ctx ~sink ~insecure =
  let r_cls = ctx.ns ^ ".util.RCrypto" in
  let extra = ref [] and spec = ref "" in
  let crypto =
    Jclass.make r_cls
      ~methods:
        [ plain_ctor ~cls:r_cls ~super:"java.lang.Object";
          B.method_ ~access:B.static_access ~cls:r_cls ~name:"enc" ~params:[]
            ~ret:void (fun mb ->
              let v, cs, s = spec_value ctx mb sink ~insecure in
              extra := cs;
              spec := s;
              emit_sink mb sink ~value:v) ]
  in
  let act, comps =
    make_activity ctx ~simple:"RfMainActivity"
      ~on_create:(fun mb ->
        let cls_name = B.const_str mb r_cls in
        let c =
          B.invoke_ret mb ~kind:Expr.Static ~callee:Api.class_for_name
            ~args:[ Value.Local cls_name ] ()
        in
        let m_name = B.const_str mb "enc" in
        let m =
          B.invoke_ret mb ~base:c ~kind:Expr.Virtual ~callee:Api.class_get_method
            ~args:[ Value.Local m_name ] ()
        in
        let args =
          B.assign mb (Types.Array Types.object_)
            (Expr.New_array (Types.object_, Value.Const (Value.Int_c 0)))
        in
        ignore
          (B.invoke_ret mb ~base:m ~kind:Expr.Virtual ~callee:Api.method_invoke
             ~args:[ Value.Const Value.Null; Value.Local args ] ()))
      ()
  in
  { classes = act :: crypto :: !extra;
    components = comps;
    planted =
      mk_planted ctx Shape.Reflective_sink sink ~insecure ~spec:!spec
        ~sink_class:r_cls }

(** The cipher transformation string assembled at runtime with a
    StringBuilder ("AES" + "/ECB" + "/PKCS5Padding") — only the API models of
    the forward analysis can recover the full constant. *)
let plant_builder_spec ctx ~sink ~insecure =
  (* the assembled string is a cipher transformation, so only on the cipher
     sink does the insecure spec realise a misuse; on any other sink the
     program misuses nothing and the plant is labelled secure.  The spec
     string itself still follows [insecure], whatever the sink. *)
  let chain_cls = ctx.ns ^ ".util.BChain" in
  let chain_klass, chain_head =
    static_chain ~cls:chain_cls ~ty:Types.string_ ~n:2
      ~last:(fun mb p -> emit_sink mb sink ~value:p)
  in
  let spec_parts =
    if insecure then [ "AES"; "/ECB"; "/PKCS5Padding" ]
    else [ "AES"; "/GCM"; "/NoPadding" ]
  in
  let act, comps =
    make_activity ctx ~simple:"BsMainActivity"
      ~on_create:(fun mb ->
        let sb =
          B.new_obj mb "java.lang.StringBuilder" ~ctor_params:[] ~args:[]
        in
        let cur = ref sb in
        List.iter
          (fun part ->
             let p = B.const_str mb part in
             cur :=
               B.invoke_ret mb ~base:!cur ~kind:Expr.Virtual
                 ~callee:Api.string_builder_append ~args:[ Value.Local p ] ())
          spec_parts;
        let spec =
          B.invoke_ret mb ~base:!cur ~kind:Expr.Virtual
            ~callee:Api.string_builder_to_string ~args:[] ()
        in
        B.call_static mb ~callee:chain_head ~args:[ Value.Local spec ])
      ()
  in
  { classes = [ act; chain_klass ];
    components = comps;
    planted =
      mk_planted ctx Shape.Builder_spec sink
        ~insecure:
          (insecure && Jsig.meth_equal sink.msig Api.cipher_get_instance)
        ~spec:(String.concat "" spec_parts) ~sink_class:chain_cls }

(** WebView configuration: the insecure variant enables JavaScript
    (setJavaScriptEnabled(1)) and installs a JavaScript bridge
    (addJavascriptInterface); the safe variant disables JavaScript and adds
    no bridge at all — the bridge rule is presence-based, so its sink must
    not even appear in the safe bytecode. *)
let plant_webview_misuse ctx ~sink ~insecure =
  ignore sink;
  let act, comps =
    make_activity ctx ~simple:"WvMainActivity"
      ~on_create:(fun mb ->
        let w = B.new_obj mb "android.webkit.WebView" ~ctor_params:[] ~args:[] in
        let b = B.const_int mb (if insecure then 1 else 0) in
        B.call_virtual mb ~base:w ~callee:Api.webview_set_javascript_enabled
          ~args:[ Value.Local b ];
        if insecure then begin
          let o = B.new_obj mb "java.lang.Object" ~ctor_params:[] ~args:[] in
          let name = B.const_str mb "bridge" in
          B.call_virtual mb ~base:w ~callee:Api.webview_add_javascript_interface
            ~args:[ Value.Local o; Value.Local name ]
        end)
      ()
  in
  { classes = [ act ];
    components = comps;
    planted =
      mk_planted ctx Shape.Webview_misuse Sinks.webview_js ~insecure
        ~spec:(if insecure then "1" else "0")
        ~sink_class:(ctx.ns ^ ".WvMainActivity") }

(** SQL injection: an exported activity runs [rawQuery] over a string read
    from its launching Intent (insecure — any outside app controls it) or
    over a constant query (safe).  The exported component has no in-app
    senders, so resolution relies on the exported-ICC fallback. *)
let plant_sql_injection ctx ~sink ~insecure =
  ignore sink;
  let act_cls = ctx.ns ^ ".QueryActivity" in
  let act, _ =
    make_activity ctx ~simple:"QueryActivity" ~register:false
      ~on_create:(fun mb ->
        let q =
          if insecure then begin
            let intent =
              B.invoke_ret mb ~base:(B.this mb) ~kind:Expr.Virtual
                ~callee:Api.activity_get_intent ~args:[] ()
            in
            let key = B.const_str mb "q" in
            B.invoke_ret mb ~base:intent ~kind:Expr.Virtual
              ~callee:Api.intent_get_string_extra ~args:[ Value.Local key ] ()
          end
          else B.const_str mb "SELECT * FROM items"
        in
        let db =
          B.new_obj mb "android.database.sqlite.SQLiteDatabase" ~ctor_params:[]
            ~args:[]
        in
        ignore
          (B.invoke_ret mb ~base:db ~kind:Expr.Virtual
             ~callee:Api.sqlite_raw_query
             ~args:[ Value.Local q; Value.Const Value.Null ] ()))
      ()
  in
  { classes = [ act ];
    components = [ Component.make ~exported:true ~kind:Component.Activity act_cls ];
    planted =
      mk_planted ctx Shape.Sql_injection Sinks.sql_query ~insecure
        ~spec:(if insecure then "intent:q" else "SELECT * FROM items")
        ~sink_class:act_cls }

(** Intent redirection: an exported proxy activity forwards its launching
    Intent verbatim to [startActivity] (insecure — a classic redirection
    proxy) or launches a fixed explicit in-app Intent (safe). *)
let plant_intent_redirect ctx ~sink ~insecure =
  ignore sink;
  let proxy_cls = ctx.ns ^ ".ProxyActivity" in
  let target_cls = ctx.ns ^ ".TargetActivity" in
  let target, _ =
    make_activity ctx ~simple:"TargetActivity" ~register:false
      ~on_create:(fun mb -> ignore (B.const_int mb 0))
      ()
  in
  let proxy, _ =
    make_activity ctx ~simple:"ProxyActivity" ~register:false
      ~on_create:(fun mb ->
        let intent =
          if insecure then
            B.invoke_ret mb ~base:(B.this mb) ~kind:Expr.Virtual
              ~callee:Api.activity_get_intent ~args:[] ()
          else begin
            let cls_c = B.const_class mb target_cls in
            B.new_obj mb "android.content.Intent"
              ~ctor_params:[ Api.context_t; Types.Object "java.lang.Class" ]
              ~args:[ Value.Local (B.this mb); Value.Local cls_c ]
          end
        in
        B.invoke mb ~base:(B.this mb) ~kind:Expr.Virtual
          ~callee:Api.context_start_activity ~args:[ Value.Local intent ] ())
      ()
  in
  { classes = [ proxy; target ];
    components =
      [ Component.make ~exported:true ~kind:Component.Activity proxy_cls;
        Component.make ~kind:Component.Activity target_cls ];
    planted =
      mk_planted ctx Shape.Intent_redirect Sinks.intent_redirect ~insecure
        ~spec:(if insecure then "launching-intent" else target_cls)
        ~sink_class:proxy_cls }

(* ------------------------------------------------------------------ *)

(** Plant one sink flow of the given shape. *)
let plant ctx shape ~sink ~insecure =
  match (shape : Shape.t) with
  | Direct -> plant_direct ctx ~sink ~insecure
  | Static_chain -> plant_static_chain ctx ~sink ~insecure
  | Child_class -> plant_child_class ctx ~sink ~insecure
  | Super_class -> plant_super_class ctx ~sink ~insecure
  | Interface_dispatch -> plant_interface ctx ~sink ~insecure
  | Callback -> plant_callback ctx ~sink ~insecure
  | Async_thread -> plant_async_thread ctx ~sink ~insecure
  | Async_executor -> plant_async_executor ctx ~sink ~insecure
  | Async_task -> plant_async_task ctx ~sink ~insecure
  | Static_init -> plant_static_init ctx ~sink ~insecure
  | Clinit_field -> plant_clinit_field ctx ~sink ~insecure
  | Icc_explicit -> plant_icc_explicit ctx ~sink ~insecure
  | Icc_implicit -> plant_icc_implicit ctx ~sink ~insecure
  | Lifecycle_field -> plant_lifecycle_field ctx ~sink ~insecure
  | Dead_code -> plant_dead_code ctx ~sink ~insecure
  | Unregistered_component -> plant_unregistered ctx ~sink ~insecure
  | Skipped_lib -> plant_skipped_lib ctx ~sink ~insecure
  | Subclassed_sink -> plant_subclassed_sink ctx ~sink ~insecure
  | Recursive_chain -> plant_recursive ctx ~sink ~insecure
  | Shared_util ->
    (* a single shared-group member degenerates to a group of one *)
    let classes, components, planted =
      plant_shared_group ctx ~sink ~insecure ~count:1
    in
    { classes; components; planted = List.hd planted }
  | Reflective_sink -> plant_reflective ctx ~sink ~insecure
  | Builder_spec -> plant_builder_spec ctx ~sink ~insecure
  | Webview_misuse -> plant_webview_misuse ctx ~sink ~insecure
  | Sql_injection -> plant_sql_injection ctx ~sink ~insecure
  | Intent_redirect -> plant_intent_redirect ctx ~sink ~insecure
