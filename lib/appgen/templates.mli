(** Code-pattern templates.  Each template plants one sink API call wrapped in
    a specific code shape (see {!module:Shape}) together with the app classes
    and manifest components that make the flow (un)reachable, and returns the
    ground truth used to score detection accuracy. *)

module B = Ir.Builder
module Api = Framework.Api
module Sinks = Framework.Sinks
module Component = Manifest.Component
type ctx = { ns : string; rng : Rng.t; }
type planted = {
  shape : Shape.t;
  sink : Sinks.t;
  insecure : bool;
  reachable : bool;
  spec : string;
  sink_class : string;
}
type result = {
  classes : Ir.Jclass.t list;
  components : Component.t list;
  planted : planted;
}
val void : Ir.Types.t
val ctor_with_super :
  ?params:Ir.Types.t list ->
  cls:string -> super:string -> (B.mb -> unit) -> Ir.Jmethod.t
val plain_ctor : cls:string -> super:string -> Ir.Jmethod.t

(** Activity class with a generated [onCreate] plus its manifest entry. *)
val make_activity :
  ?extra_methods:(string -> Ir.Jmethod.t list) ->
  ?register:bool ->
  ctx ->
  simple:string ->
  on_create:(B.mb -> unit) -> unit -> Ir.Jclass.t * Component.t list

(** The security-relevant value passed to the sink.  May need auxiliary app
    classes (e.g. a trust-all verifier); returns the value's local, the extra
    classes and the ground-truth spec string. *)
val spec_value :
  ctx ->
  B.mb ->
  Sinks.t -> insecure:bool -> Ir.Value.local * Ir.Jclass.t list * string

(** IR type of the value a sink-bound chain passes along. *)
val chain_ty : Sinks.t -> Ir.Types.t

(** Emit the sink API call itself, consuming [value]. *)
val emit_sink : B.mb -> Sinks.t -> value:Ir.Value.local -> unit

(** A chain of [n] public-static hop methods [step0 .. step(n-1)] in class
    [cls]; each passes its parameter to the next, the last runs [last].
    Returns the class and the signature of [step0]. *)
val static_chain :
  cls:string ->
  ty:Ir.Types.t ->
  n:int ->
  last:(B.mb -> Ir.Value.local -> unit) -> Ir.Jclass.t * Ir.Jsig.meth
val mk_planted :
  ?reachable:bool ->
  'a ->
  Shape.t ->
  Sinks.t -> insecure:bool -> spec:string -> sink_class:string -> planted

(** entry activity onCreate → private doWork(v) → static chain → sink *)
val plant_direct : ctx -> sink:Sinks.t -> insecure:bool -> result

(** entry → static chain only *)
val plant_static_chain : ctx -> sink:Sinks.t -> insecure:bool -> result

(** Base.start(v) has the sink; Child extends Base without overriding; the
    caller invokes through a Child-typed receiver. *)
val plant_child_class : ctx -> sink:Sinks.t -> insecure:bool -> result

(** NetServer overrides SuperServer.start; call goes through the super-class
    type, so the callee's own signature never appears in the bytecode. *)
val plant_super_class : ctx -> sink:Sinks.t -> insecure:bool -> result

(** TaskImpl implements an app interface; call goes through the interface. *)
val plant_interface : ctx -> sink:Sinks.t -> insecure:bool -> result

(** A listener class storing the value in a field; flow continues in
    [onClick] after registration via [setOnClickListener]. *)
val plant_callback : ctx -> sink:Sinks.t -> insecure:bool -> result

(** Runnable job passed to [new Thread(job).start()]. *)
val plant_async_thread : ctx -> sink:Sinks.t -> insecure:bool -> result

(** The Fig. 4 pattern: runnable handed through a util chain that ends in
    [Executor.execute]. *)
val plant_async_executor : ctx -> sink:Sinks.t -> insecure:bool -> result

(** AsyncTask subclass; flow continues in [doInBackground]. *)
val plant_async_task : ctx -> sink:Sinks.t -> insecure:bool -> result

(** Sink under a <clinit>; reachability decided by the recursive class-use
    search.  [reachable] controls whether an entry class transitively uses
    the initialized class. *)
val plant_static_init :
  ?reachable:bool -> ctx -> sink:Sinks.t -> insecure:bool -> result

(** Sink parameter read from a static field whose value is only assigned in
    an off-path <clinit> (Fig. 6's MP3LocalServer.PORT pattern). *)
val plant_clinit_field : ctx -> sink:Sinks.t -> insecure:bool -> result

(** Explicit ICC: the activity starts a service with an Intent extra; the
    sink consumes the extra in [onStartCommand]. *)
val plant_icc_explicit : ctx -> sink:Sinks.t -> insecure:bool -> result

(** Implicit ICC via a broadcast action string. *)
val plant_icc_implicit : ctx -> sink:Sinks.t -> insecure:bool -> result

(** Value stored into an activity field in [onCreate], consumed by the sink
    in [onResume] — exercises the lifecycle-handler search. *)
val plant_lifecycle_field : ctx -> sink:Sinks.t -> insecure:bool -> result

(** Sink inside a method that nothing ever calls. *)
val plant_dead_code : ctx -> sink:Sinks.t -> insecure:bool -> result

(** Activity subclass with a sink flow that is NOT registered in the
    manifest — the deactivated-component false-positive class. *)
val plant_unregistered : ctx -> sink:Sinks.t -> insecure:bool -> result

(** Sink inside one of the library packages Amandroid's liblist skips. *)
val skipped_lib_packages : string list
val plant_skipped_lib : ctx -> sink:Sinks.t -> insecure:bool -> result

(** The documented BackDroid FN: the sink API is only invoked through an app
    subclass of the sink's system class, so the initial search for the system
    signature finds nothing. *)
val plant_subclassed_sink : ctx -> sink:Sinks.t -> insecure:bool -> result

(** Mutually recursive methods on the sink path: [process] and [retry] call
    each other, and [wrap] recurses on itself behind a Phi, so both the
    cross-method and the inner dead-loop detectors of Sec. IV-F fire while
    the dataflow still resolves through the Phi's second operand. *)
val plant_recursive : ctx -> sink:Sinks.t -> insecure:bool -> result

(** A group of [count] sink calls behind one shared utility class: every
    activity calls [CryptoHub.route], which fans out to per-sink [encI]
    methods.  Backtracking each sink re-searches [route]'s callers, so the
    search-command cache gets the repeated hits of Sec. IV-F. *)
val plant_shared_group :
  ctx ->
  sink:Sinks.t ->
  insecure:bool ->
  count:int -> Ir.Jclass.t list * Component.t list * planted list

(** The sink's containing method is only ever invoked through reflection:
    [Class.forName(...); getMethod("enc"); invoke(...)].  Invisible to the
    signature searches (and to CHA) unless reflection resolution rewrites it
    into a direct call first. *)
val plant_reflective : ctx -> sink:Sinks.t -> insecure:bool -> result

(** The cipher transformation string assembled at runtime with a
    StringBuilder ("AES" + "/ECB" + "/PKCS5Padding") — only the API models of
    the forward analysis can recover the full constant.  Only the cipher
    sink turns that string into a misuse: on another sink the insecure
    variant emits the same string but is planted (labelled) secure. *)
val plant_builder_spec : ctx -> sink:Sinks.t -> insecure:bool -> result

(** Plant one sink flow of the given shape. *)
val plant : ctx -> Shape.t -> sink:Sinks.t -> insecure:bool -> result
