(** The adjusted backward slicing (Sec. V-A): starting at a sink API call,
    taint the security-relevant parameter and scan method bodies backwards,
    crossing method boundaries through the bytecode searches of Sec. IV and
    recording every visited statement and inter-procedural relationship into
    the SSG.

    Taints cover locals, instance fields (tainting the class object along
    with the field, so aliases and method boundaries are survived), Intent
    extras (keyed like fields) and static fields (a global set).  Contained
    methods — constructors writing tainted fields, and calls whose return
    value is tainted — are analysed by recursive sub-slices whose residual
    taints are mapped back to the call site.

    Caller queries go through the {!Resolver} broker, which classifies the
    callee, runs the right Sec. IV search and returns uniform caller
    records; the two traversals here ({!method_reachable}'s recursion and
    {!continue_to_callers}) are generic over those records.  All state and
    budget accounting lives in the {!Context}. *)

open Ir
module Sinks = Framework.Sinks

(* ------------------------------------------------------------------ *)
(* Taint sets                                                           *)

type taints = {
  locals : (string, unit) Hashtbl.t;
  mutable fields : (string, (string, Jsig.field) Hashtbl.t) Hashtbl.t option;
      (** object id -> (field signature -> field), allocated on the first
          field taint; inner tables are removed eagerly when they empty, so
          membership of the outer key means "has tainted fields" *)
  mutable intents : (string, (string, unit) Hashtbl.t) Hashtbl.t option;
      (** object id -> set of tainted extra keys, allocated on the first
          Intent taint; same eager-removal rule *)
  mutable settled : residual_acc list;
      (** residuals settled during the scan, at identity statements *)
}

and residual_acc = R_acc_param of int | R_acc_this

let fresh_taints () =
  { locals = Hashtbl.create 8; fields = None; intents = None; settled = [] }

let taint_local t id = Hashtbl.replace t.locals id ()
let untaint_local t id = Hashtbl.remove t.locals id
let local_tainted t id = Hashtbl.mem t.locals id

(* [found], or else a fresh table of [size] buckets handed to [store]: the
   taint tables are allocated on first write. *)
let or_create found ~size store =
  match found with
  | Some tbl -> tbl
  | None ->
    let tbl = Hashtbl.create size in
    store tbl;
    tbl

(* [obj]'s inner table in an object-keyed table, created on first write
   along with the outer table. *)
let inner_of outer obj ~size =
  or_create (Hashtbl.find_opt outer obj) ~size (Hashtbl.replace outer obj)

(* [obj]'s inner table in an optional outer table, if any. *)
let inner_opt outer obj =
  match outer with None -> None | Some o -> Hashtbl.find_opt o obj

let remove_inner outer obj key =
  match outer with
  | None -> ()
  | Some o ->
    (match Hashtbl.find_opt o obj with
     | None -> ()
     | Some inner ->
       Hashtbl.remove inner key;
       if Hashtbl.length inner = 0 then Hashtbl.remove o obj)

let outer_length = function None -> 0 | Some o -> Hashtbl.length o

let taint_field t obj (f : Jsig.field) =
  let fields = or_create t.fields ~size:4 (fun o -> t.fields <- Some o) in
  Hashtbl.replace (inner_of fields obj ~size:4) (Jsig.field_to_string f) f;
  (* the paper also taints the class object itself *)
  taint_local t obj

let untaint_field t obj (f : Jsig.field) =
  remove_inner t.fields obj (Jsig.field_to_string f)

let field_tainted t obj (f : Jsig.field) =
  match inner_opt t.fields obj with
  | None -> false
  | Some inner -> Hashtbl.mem inner (Jsig.field_to_string f)

let has_field_taints t obj = Option.is_some (inner_opt t.fields obj)

(** Fields tainted on a given object local — O(own fields). *)
let fields_of t obj =
  match inner_opt t.fields obj with
  | None -> []
  | Some inner -> Hashtbl.fold (fun _ f acc -> f :: acc) inner []

let taint_intent t obj key =
  let intents = or_create t.intents ~size:2 (fun o -> t.intents <- Some o) in
  Hashtbl.replace (inner_of intents obj ~size:2) key ();
  (* track the carrying object as well, mirroring the field rule *)
  Hashtbl.replace t.locals obj ()

let untaint_intent t obj key = remove_inner t.intents obj key

let intent_tainted t obj key =
  match inner_opt t.intents obj with
  | None -> false
  | Some inner -> Hashtbl.mem inner key

let has_intent_taints t obj = Option.is_some (inner_opt t.intents obj)

(** Extra keys tainted on a given Intent local — O(own keys). *)
let intent_keys_of t obj =
  match inner_opt t.intents obj with
  | None -> []
  | Some inner -> Hashtbl.fold (fun k () acc -> k :: acc) inner []

let has_obj_taints t obj = has_field_taints t obj || has_intent_taints t obj

let is_empty t =
  Hashtbl.length t.locals = 0 && outer_length t.fields = 0
  && outer_length t.intents = 0

(** Transfer all taints attached to alias [dst] onto [src] (processing a
    backward copy [dst := src]). *)
let transfer_alias t ~dst ~src =
  if local_tainted t dst then begin
    untaint_local t dst;
    taint_local t src
  end;
  List.iter (fun f -> untaint_field t dst f; taint_field t src f) (fields_of t dst);
  List.iter
    (fun k -> untaint_intent t dst k; taint_intent t src k)
    (intent_keys_of t dst)

(* ------------------------------------------------------------------ *)
(* Residual taints at method entry                                      *)

type residual =
  | R_param of int
  | R_param_field of int * Jsig.field
  | R_this
  | R_this_field of Jsig.field
  | R_intent of int * string
      (** Intent extra: parameter index ([-1] = the component's launching
          Intent, from [getIntent()]) and extra key *)

let getintent_marker = "<launching-intent>"

let record (ctx : Context.t) meth idx stmt =
  ignore (Ssg.add_node ctx.ssg ~meth ~stmt_idx:idx ~stmt)

(** Quick backward lookup of a string constant for [v] (used to resolve
    Intent extra keys at [getStringExtra]/[putExtra] sites). *)
let resolve_string_const body idx (v : Value.t) =
  match v with
  | Value.Const (Value.Str_c s) -> Some s
  | Value.Const _ -> None
  | Value.Local l ->
    let rec back i =
      if i < 0 then None
      else
        match body.(i) with
        | Stmt.Assign (d, Expr.Imm (Value.Const (Value.Str_c s)))
          when Value.local_equal d l -> Some s
        | _ -> back (i - 1)
    in
    back (idx - 1)

let is_system_class (ctx : Context.t) cls =
  match Program.find_class ctx.program cls with
  | Some c -> c.Jclass.is_system
  | None -> true

(* ------------------------------------------------------------------ *)
(* Backward scan of one method body                                     *)

(** Scan [meth]'s body backward from [from_idx], transforming [t] in place
    and recording SSG nodes.  Returns the residual taints at method entry.
    [path] carries the methods on the current backtracking chain for loop
    detection; [cdepth] bounds contained-method recursion. *)
let rec scan (ctx : Context.t) ~path ~cdepth (meth : Jsig.meth) body ~from_idx t =
  let idx = ref (min from_idx (Array.length body - 1)) in
  while !idx >= 0 do
    let stmt = body.(!idx) in
    (match stmt with
     | Stmt.Assign (l, Expr.Param i) when local_tainted t l.Value.id ->
       (* identity statement: the tainted local IS the parameter — settle it
          as a residual for the caller mapping *)
       untaint_local t l.Value.id;
       record ctx meth !idx stmt;
       t.settled <- R_acc_param i :: t.settled
     | Stmt.Assign (l, Expr.This) when local_tainted t l.Value.id ->
       untaint_local t l.Value.id;
       record ctx meth !idx stmt;
       t.settled <- R_acc_this :: t.settled
     | Stmt.Assign (l, e) when local_tainted t l.Value.id ->
       untaint_local t l.Value.id;
       record ctx meth !idx stmt;
       process_def ctx ~path ~cdepth meth body !idx t l e
     | Stmt.Assign (l, Expr.Imm (Value.Local x))
       when has_obj_taints t l.Value.id ->
       (* alias copy: move attached field / intent taints to the source *)
       record ctx meth !idx stmt;
       transfer_alias t ~dst:l.Value.id ~src:x.Value.id
     | Stmt.Assign (l, Expr.Cast (_, Value.Local x))
       when has_obj_taints t l.Value.id ->
       record ctx meth !idx stmt;
       transfer_alias t ~dst:l.Value.id ~src:x.Value.id
     | Stmt.Instance_put (o, f, v) when field_tainted t o.Value.id f ->
       record ctx meth !idx stmt;
       untaint_field t o.Value.id f;
       (* drop the object taint when no other tainted field remains *)
       if not (has_obj_taints t o.Value.id) then untaint_local t o.Value.id;
       taint_value t v
     | Stmt.Static_put (f, v)
       when List.exists (Jsig.field_equal f) ctx.ssg.Ssg.global_static_taints ->
       record ctx meth !idx stmt;
       Ssg.remove_global_static_taint ctx.ssg f;
       taint_value t v
     | Stmt.Array_put (a, _i, v) when local_tainted t a.Value.id ->
       (* arrays are handled like fields: the store feeds the tainted array *)
       record ctx meth !idx stmt;
       taint_value t v
     | Stmt.Invoke iv ->
       process_plain_invoke ctx ~path ~cdepth meth body !idx t iv
     | Stmt.Assign _ | Stmt.Instance_put _ | Stmt.Static_put _
     | Stmt.Array_put _ | Stmt.Return _ | Stmt.If _ | Stmt.Goto _
     | Stmt.Throw _ | Stmt.Nop -> ());
    decr idx
  done;
  residuals_of ctx meth t

and taint_value t = function
  | Value.Local l -> taint_local t l.Value.id
  | Value.Const _ -> ()

(** Transfer for a tainted definition [l := e]. *)
and process_def (ctx : Context.t) ~path ~cdepth meth body idx t l e =
  match e with
  | Expr.Imm (Value.Local x) -> taint_local t x.Value.id
  | Expr.Imm (Value.Const _) -> ()
  | Expr.Binop (_, a, b) -> taint_value t a; taint_value t b
  | Expr.Cast (_, v) -> taint_value t v
  | Expr.Phi ls -> List.iter (fun x -> taint_local t x.Value.id) ls
  | Expr.New _ | Expr.New_array _ -> ()  (* points-to origin: a leaf *)
  | Expr.Length v -> taint_value t v
  | Expr.Array_get (a, _) -> taint_local t a.Value.id
  | Expr.Instance_get (o, f) -> taint_field t o.Value.id f
  | Expr.Static_get f ->
    Ssg.add_global_static_taint ctx.ssg f;
    locate_static_writers ctx ~path ~cdepth f
  | Expr.Param _ | Expr.This | Expr.Caught_exception -> ()
  | Expr.Invoke iv -> process_result_invoke ctx ~path ~cdepth meth body idx t l iv

(** A call whose result is tainted ([l] is the result local). *)
and process_result_invoke (ctx : Context.t) ~path ~cdepth meth body idx t l
    (iv : Expr.invoke) =
  let callee = iv.callee in
  if Jsig.meth_equal callee Framework.Api.intent_get_string_extra then begin
    match iv.base, resolve_string_const body idx (List.nth iv.args 0) with
    | Some b, Some key -> taint_intent t b.Value.id key
    | Some b, None -> taint_local t b.Value.id
    | None, _ -> ()
  end
  else if Jsig.meth_equal callee Framework.Api.activity_get_intent then
    (* the result is the component's launching Intent: re-key any extra-key
       taints of the result local onto the marker so they surface as
       R_intent (-1, _) residuals *)
    List.iter
      (fun key ->
         untaint_intent t l.Value.id key;
         taint_intent t getintent_marker key)
      (intent_keys_of t l.Value.id)
  else if is_system_class ctx callee.Jsig.cls then begin
    (* generic framework model: result depends on receiver and arguments *)
    (match iv.base with Some b -> taint_local t b.Value.id | None -> ());
    List.iter (taint_value t) iv.args
  end
  else begin
    (* contained app method: trace its return values by sub-slice *)
    match Program.find_method ctx.program callee with
    | None | Some { Jmethod.body = None; _ } ->
      (match iv.base with Some b -> taint_local t b.Value.id | None -> ());
      List.iter (taint_value t) iv.args
    | Some callee_m ->
      if cdepth >= ctx.budget.Context.max_contained_depth then ()
      else if Loopdetect.on_path path callee then
        Loopdetect.record ctx.loops Loopdetect.Inner_backward
      else begin
        Ssg.add_edge ctx.ssg
          (Ssg.Contained { caller = meth; site = idx; callee });
        let cbody = Option.get callee_m.Jmethod.body in
        let ct = fresh_taints () in
        Array.iter
          (fun s ->
             match s with
             | Stmt.Return (Some (Value.Local l)) -> taint_local ct l.Value.id
             | _ -> ())
          cbody;
        let res =
          scan ctx ~path:(callee :: path) ~cdepth:(cdepth + 1) callee cbody
            ~from_idx:(Array.length cbody - 1) ct
        in
        apply_residuals_at_site t iv res
      end
  end

(** A plain (result-less) invocation: constructor field mapping, Intent
    [putExtra], or a contained call touching tainted object fields. *)
and process_plain_invoke (ctx : Context.t) ~path ~cdepth meth _body idx t
    (iv : Expr.invoke) =
  let callee = iv.callee in
  match iv.base with
  | Some b
    when Jsig.meth_equal callee Framework.Api.intent_put_extra
      || (String.equal callee.Jsig.name "putExtra"
          && String.equal callee.Jsig.cls "android.content.Intent") ->
    (match iv.args with
     | [ k; v ] ->
       (match resolve_string_const _body idx k with
        | Some key when intent_tainted t b.Value.id key ->
          record ctx meth idx (Stmt.Invoke iv);
          untaint_intent t b.Value.id key;
          taint_value t v
        | Some _ | None -> ())
     | _ -> ())
  | Some b
    when has_obj_taints t b.Value.id
         && not (is_system_class ctx callee.Jsig.cls) ->
    (* contained method (constructor or setter) that may define the tainted
       fields of the receiver *)
    (match Program.find_method ctx.program callee with
     | None | Some { Jmethod.body = None; _ } -> ()
     | Some callee_m ->
       if cdepth >= ctx.budget.Context.max_contained_depth then ()
       else if Loopdetect.on_path path callee then
         Loopdetect.record ctx.loops Loopdetect.Inner_backward
       else begin
         record ctx meth idx (Stmt.Invoke iv);
         Ssg.add_edge ctx.ssg (Ssg.Contained { caller = meth; site = idx; callee });
         let cbody = Option.get callee_m.Jmethod.body in
         let ct = fresh_taints () in
         (match Jmethod.this_local callee_m with
          | Some this_l ->
            List.iter (fun f -> taint_field ct this_l.Value.id f)
              (fields_of t b.Value.id)
          | None -> ());
         let res =
           scan ctx ~path:(callee :: path) ~cdepth:(cdepth + 1) callee cbody
             ~from_idx:(Array.length cbody - 1) ct
         in
         (* the callee resolved (or re-mapped) the fields it defines *)
         List.iter
           (fun f ->
              match
                List.find_opt
                  (function
                    | R_this_field f' -> Jsig.field_equal f f'
                    | _ -> false)
                  res
              with
              | Some _ -> ()  (* still unresolved inside callee: keep taint *)
              | None -> untaint_field t b.Value.id f)
           (fields_of t b.Value.id);
         apply_residuals_at_site t iv res
       end)
  | Some _ | None -> ()

(** Map a contained sub-slice's residuals back onto the call-site values. *)
and apply_residuals_at_site t (iv : Expr.invoke) res =
  List.iter
    (fun r ->
       match r with
       | R_param i ->
         (match List.nth_opt iv.args i with
          | Some v -> taint_value t v
          | None -> ())
       | R_param_field (i, f) ->
         (match List.nth_opt iv.args i with
          | Some (Value.Local l) -> taint_field t l.Value.id f
          | Some (Value.Const _) | None -> ())
       | R_this ->
         (match iv.base with Some b -> taint_local t b.Value.id | None -> ())
       | R_this_field f ->
         (match iv.base with Some b -> taint_field t b.Value.id f | None -> ())
       | R_intent (i, key) ->
         (match List.nth_opt iv.args i with
          | Some (Value.Local l) -> taint_intent t l.Value.id key
          | Some (Value.Const _) | None -> ()))
    res

(** Static-field search (Sec. V-A): capture the methods that write a newly
    tainted static field, so only matching contained methods are analysed;
    writers that are [<clinit>]s join the SSG's static track. *)
and locate_static_writers (ctx : Context.t) ~path ~cdepth f =
  ignore path;
  ignore cdepth;
  let hits =
    Bytesearch.Engine.run ctx.engine
      (Bytesearch.Query.static_field_access_sym (Sigformat.to_dex_field_sym f))
  in
  List.iter
    (fun (h : Bytesearch.Engine.hit) ->
       if Jsig.is_clinit h.owner then Ssg.add_static_track ctx.ssg h.owner)
    hits

(** Compute the residual taints once the scan reaches the method entry. *)
and residuals_of (ctx : Context.t) meth t =
  let m = Program.find_method ctx.program meth in
  match m with
  | None -> []
  | Some m ->
    let this_id =
      match Jmethod.this_local m with Some l -> Some l.Value.id | None -> None
    in
    let param_ids =
      List.mapi (fun i ty -> ignore ty; (i, Jmethod.param_local m i))
        m.Jmethod.msig.Jsig.params
      |> List.filter_map (fun (i, l) ->
          match l with Some l -> Some (i, l.Value.id) | None -> None)
    in
    let param_index id =
      List.find_opt (fun (_, pid) -> String.equal pid id) param_ids
      |> Option.map fst
    in
    let acc = ref [] in
    Hashtbl.iter
      (fun id () ->
         if Some id = this_id then acc := R_this :: !acc
         else
           match param_index id with
           | Some i -> acc := R_param i :: !acc
           | None -> ())
      t.locals;
    Option.iter
      (Hashtbl.iter (fun id inner ->
           if Some id = this_id then
             Hashtbl.iter (fun _ f -> acc := R_this_field f :: !acc) inner
           else
             match param_index id with
             | Some pi ->
               Hashtbl.iter (fun _ f -> acc := R_param_field (pi, f) :: !acc)
                 inner
             | None -> ()))
      t.fields;
    Option.iter
      (Hashtbl.iter (fun id inner ->
           if id = getintent_marker then
             Hashtbl.iter (fun k () -> acc := R_intent (-1, k) :: !acc) inner
           else
             match param_index id with
             | Some i ->
               Hashtbl.iter (fun k () -> acc := R_intent (i, k) :: !acc) inner
             | None -> ()))
      t.intents;
    List.iter
      (fun r ->
         match r with
         | R_acc_param i ->
           if not (List.mem (R_param i) !acc) then acc := R_param i :: !acc
         | R_acc_this ->
           if not (List.mem R_this !acc) then acc := R_this :: !acc)
      t.settled;
    !acc

(* ------------------------------------------------------------------ *)
(* Inter-procedural backtracking                                        *)

type work = {
  w_meth : Jsig.meth;
  w_from : int;
  w_taints : taints;
  w_path : Jsig.meth list;
  w_depth : int;   (** [List.length w_path], carried to avoid recomputing *)
}

(** Memoized control-flow reachability of a method from registered entry
    points — this is both the tail of every empty-taint backtracking path and
    the paper's sink-API-call cache (Sec. IV-F).  Successful paths record
    their inter-procedural edges and entry methods into the SSG so the
    forward analysis can replay them.  [depth] is [List.length path], carried
    as an int. *)
let rec method_reachable (ctx : Context.t) ~depth path (m : Jsig.meth) =
  let key = Sym.id (Jsig.meth_sym m) in
  match Hashtbl.find_opt ctx.reach_cache key with
  | Some r ->
    if r then note_entry_if_needed ctx m;
    r
  | None ->
    if Loopdetect.on_path path m then begin
      Loopdetect.record ctx.loops Loopdetect.Cross_backward;
      false
    end
    else if depth > ctx.budget.Context.max_depth then begin
      Context.exhaust ctx Context.Depth;
      false
    end
    else if Context.out_of_time ctx then false
    else begin
      let r = compute_reachable ctx ~depth:(depth + 1) (m :: path) m in
      (* don't memoize once the deadline fired: the recursion below may have
         been cut short, and the cache outlives this sink's slice *)
      if not (Context.deadline_hit ctx) then Hashtbl.replace ctx.reach_cache key r;
      r
    end

and note_entry_if_needed (ctx : Context.t) m =
  if Lifecycle_search.is_entry ctx.program ctx.manifest m then
    Ssg.add_entry ctx.ssg m

(** Generic reach-mode traversal: one resolution, then depth-first over the
    caller records, recording each record's edge on success. *)
and compute_reachable (ctx : Context.t) ~depth path (m : Jsig.meth) =
  let r = Resolver.callers ctx m in
  if r.Resolver.entry then Ssg.add_entry ctx.ssg m;
  r.Resolver.complete
  || List.exists
       (fun (c : Resolver.caller) ->
          let ok = method_reachable ctx ~depth path c.Resolver.c_meth in
          if ok then Ssg.add_edge ctx.ssg c.Resolver.c_edge;
          ok)
       r.Resolver.callers

let push (ctx : Context.t) queue (w : work) meth from taints =
  let work_ok = ctx.work_count < ctx.budget.Context.max_work in
  let depth_ok = w.w_depth <= ctx.budget.Context.max_depth in
  if work_ok && depth_ok then begin
    ctx.work_count <- ctx.work_count + 1;
    Queue.add
      { w_meth = meth; w_from = from; w_taints = taints;
        w_path = w.w_meth :: w.w_path; w_depth = w.w_depth + 1 }
      queue
  end
  else begin
    if not work_ok then Context.exhaust ctx Context.Work;
    if not depth_ok then Context.exhaust ctx Context.Depth
  end

(** Apply a caller record's taint mapping and enqueue the continuation. *)
let apply_bind (ctx : Context.t) queue (w : work) res (c : Resolver.caller) =
  match c.Resolver.c_bind with
  | Resolver.Bind_call { invoke; from } ->
    let t = fresh_taints () in
    List.iter
      (fun r ->
         match r with
         | R_param i ->
           (match List.nth_opt invoke.Expr.args i with
            | Some (Value.Local l) -> taint_local t l.Value.id
            | Some (Value.Const _) | None -> ())
         | R_param_field (i, f) ->
           (match List.nth_opt invoke.Expr.args i with
            | Some (Value.Local l) -> taint_field t l.Value.id f
            | Some (Value.Const _) | None -> ())
         | R_this ->
           (match invoke.Expr.base with
            | Some b -> taint_local t b.Value.id
            | None -> ())
         | R_this_field f ->
           (match invoke.Expr.base with
            | Some b -> taint_field t b.Value.id f
            | None -> ())
         | R_intent (i, key) ->
           (match List.nth_opt invoke.Expr.args i with
            | Some (Value.Local l) -> taint_intent t l.Value.id key
            | Some (Value.Const _) | None -> ()))
      res;
    push ctx queue w c.Resolver.c_meth from t
  | Resolver.Bind_intent { intent_local; from } ->
    let t = fresh_taints () in
    List.iter
      (function
        | R_intent (_, key) -> taint_intent t intent_local key
        | R_param _ | R_param_field _ | R_this | R_this_field _ -> ())
      res;
    push ctx queue w c.Resolver.c_meth from t
  | Resolver.Bind_fields ->
    (* earlier lifecycle handler: residual receiver fields onto its own
       [this], rescanned from the body end *)
    (match Program.find_method ctx.program c.Resolver.c_meth with
     | Some ({ Jmethod.body = Some body; _ } as pm) ->
       let t = fresh_taints () in
       (match Jmethod.this_local pm with
        | Some this_l ->
          List.iter
            (function
              | R_this_field f -> taint_field t this_l.Value.id f
              | _ -> ())
            res
        | None -> ());
       push ctx queue w c.Resolver.c_meth (Array.length body - 1) t
     | Some { Jmethod.body = None; _ } | None -> ())
  | Resolver.Bind_async { obj_local; ending } ->
    (* this-side residuals map onto the constructor object in the chain
       head; the whole head body is rescanned since fields may be written
       anywhere before the callback fires *)
    let this_fields =
      List.filter_map (function R_this_field f -> Some f | _ -> None) res
    in
    let this_res = List.exists (function R_this -> true | _ -> false) res in
    (match Program.find_method ctx.program c.Resolver.c_meth with
     | Some { Jmethod.body = Some body; _ } ->
       let t = fresh_taints () in
       List.iter (fun f -> taint_field t obj_local f) this_fields;
       if this_res then taint_local t obj_local;
       if not (is_empty t) then
         push ctx queue w c.Resolver.c_meth (Array.length body - 1) t
       else if method_reachable ctx ~depth:w.w_depth w.w_path c.Resolver.c_meth
       then ctx.ssg.Ssg.reachable <- true
     | Some { Jmethod.body = None; _ } | None -> ());
    (* parameter residuals map at an app-level ending call; a framework
       ending means the callee params are framework inputs *)
    (match ending with
     | Some (ending_in, ending_site, iv) ->
       let t = fresh_taints () in
       List.iter
         (fun r ->
            match r with
            | R_param i ->
              (match List.nth_opt iv.Expr.args i with
               | Some (Value.Local l) -> taint_local t l.Value.id
               | Some (Value.Const _) | None -> ())
            | R_param_field (i, f) ->
              (match List.nth_opt iv.Expr.args i with
               | Some (Value.Local l) -> taint_field t l.Value.id f
               | Some (Value.Const _) | None -> ())
            | R_this | R_this_field _ | R_intent _ -> ())
         res;
       if not (is_empty t) then push ctx queue w ending_in (ending_site - 1) t
     | None -> ())

(** Continue backtracking from the entry of [w.w_meth] given its residual
    taints: one broker resolution, then a generic iteration over the caller
    records — loop guard, edge, taint binding, push. *)
let continue_to_callers (ctx : Context.t) queue (w : work) res =
  let m = w.w_meth in
  if res = [] then begin
    (* dataflow fully resolved: only control-flow reachability remains *)
    if method_reachable ctx ~depth:w.w_depth w.w_path m then
      ctx.ssg.Ssg.reachable <- true
  end
  else begin
    let demand =
      { Resolver.has_intent =
          List.exists (function R_intent _ -> true | _ -> false) res;
        has_this = List.exists (function R_this -> true | _ -> false) res;
        this_fields =
          List.filter_map (function R_this_field f -> Some f | _ -> None) res }
    in
    let r = Resolver.callers ~demand ctx m in
    Log.debug (fun l ->
        l "entry of %s: %d residual taints, strategy %s"
          (Jsig.meth_to_string m) (List.length res)
          (Resolver.strategy_to_string r.Resolver.strategy));
    if r.Resolver.entry then Ssg.add_entry ctx.ssg m;
    if r.Resolver.complete then ctx.ssg.Ssg.reachable <- true;
    List.iter
      (fun (c : Resolver.caller) ->
         if Loopdetect.on_path w.w_path c.Resolver.c_meth then
           Loopdetect.record ctx.loops Loopdetect.Cross_backward
         else begin
           Ssg.add_edge ctx.ssg c.Resolver.c_edge;
           apply_bind ctx queue w res c
         end)
      r.Resolver.callers
  end

(** Resolve still-untainted static fields by adding their classes'
    [<clinit>] methods to the SSG's static track (off-path static
    initializers, Sec. V-A). *)
let add_off_path_clinits (ctx : Context.t) =
  List.iter
    (fun (f : Jsig.field) ->
       match Program.find_class ctx.program f.Jsig.fcls with
       | Some c ->
         (match Jclass.clinit c with
          | Some clinit -> Ssg.add_static_track ctx.ssg clinit.Jmethod.msig
          | None -> ())
       | None -> ())
    ctx.ssg.Ssg.global_static_taints

let m_slices = Obs.Metrics.counter "slice.sinks"
let m_partial = Obs.Metrics.counter "slice.partial"
let m_work = Obs.Metrics.histogram "slice.work_items"

let m_exhaustions =
  List.map
    (fun e ->
       (e, Obs.Metrics.counter
             ("budget.exhausted." ^ Context.exhaustion_to_string e)))
    [ Context.Work; Context.Depth; Context.Deadline ]

(** Slice one sink API call occurrence, producing its SSG, the typed budget
    outcome and the provenance ledger of the derivation. *)
let slice_full ~(shared : Context.shared) ?budget ~(sink : Sinks.t) ~sink_meth
    ~sink_site () =
  let span0 = Obs.Span.start () in
  let wall0 = Unix.gettimeofday () in
  let ssg = Ssg.create ~sink ~sink_meth ~sink_site in
  let ctx = Context.create ?budget shared ~ssg in
  let program = ctx.Context.program in
  (match Program.find_method program sink_meth with
   | Some { Jmethod.body = Some body; _ } when sink_site < Array.length body ->
     let stmt = body.(sink_site) in
     record ctx sink_meth sink_site stmt;
     let t = fresh_taints () in
     (match Stmt.invoke stmt with
      | Some iv ->
        (match List.nth_opt iv.Expr.args sink.Sinks.param_index with
         | Some (Value.Local l) -> taint_local t l.Value.id
         | Some (Value.Const _) | None -> ())
      | None -> ());
     let queue = Queue.create () in
     Queue.add
       { w_meth = sink_meth; w_from = sink_site - 1; w_taints = t;
         w_path = []; w_depth = 0 }
       queue;
     while not (Queue.is_empty queue) && not (Context.out_of_time ctx) do
       let w = Queue.pop queue in
       match Program.find_method program w.w_meth with
       | Some { Jmethod.body = Some body; _ } ->
         let res =
           scan ctx ~path:(w.w_meth :: w.w_path) ~cdepth:0 w.w_meth body
             ~from_idx:w.w_from w.w_taints
         in
         continue_to_callers ctx queue w res
       | Some { Jmethod.body = None; _ } | None -> ()
     done;
     add_off_path_clinits ctx
   | Some { Jmethod.body = None; _ } | Some _ | None -> ());
  let outcome = Context.outcome ctx in
  let wall_us = (Unix.gettimeofday () -. wall0) *. 1e6 in
  let prov = Provenance.fresh_of ctx ~wall_us in
  Obs.Metrics.incr m_slices;
  Obs.Metrics.observe m_work (float_of_int ctx.Context.work_count);
  (* one attribute list for the flight entry, the partial-slice anomaly
     and the span *)
  let attrs =
    [ ("sink", Obs.Span.Str (Sym.to_string (Jsig.meth_sym sink_meth)));
      ("work", Obs.Span.Int ctx.Context.work_count);
      ("outcome", Obs.Span.Str (Context.outcome_to_string outcome)) ]
  in
  Obs.Flight.record ~kind:"span" ~name:"slice" ~attrs ();
  (match outcome with
   | Context.Complete -> ()
   | Context.Partial exs ->
     Obs.Metrics.incr m_partial;
     List.iter
       (fun e ->
          match List.assoc_opt e m_exhaustions with
          | Some c -> Obs.Metrics.incr c
          | None -> ())
       exs;
     (* a truncated verdict is an anomaly: dump the flight ring so the
        post-mortem shows what the slice was doing when the budget ran out *)
     Obs.Flight.anomaly
       ~kind:(if List.mem Context.Deadline exs then "deadline" else "budget")
       ~name:"slice-partial" ~attrs ());
  Obs.Span.emit ~cat:"slice" ~name:"sink" ~attrs span0;
  (ssg, outcome, prov)

(** {!slice_full} without the ledger (compatibility surface for callers
    that only need the SSG and outcome). *)
let slice ~shared ?budget ~sink ~sink_meth ~sink_site () =
  let ssg, outcome, _prov =
    slice_full ~shared ?budget ~sink ~sink_meth ~sink_site ()
  in
  (ssg, outcome)
