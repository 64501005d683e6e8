(** Forward object taint analysis (Sec. IV-B): starting from a constructor
    allocation site located by signature search, propagate the object through
    definition, invoke and return statements until it reaches an "ending
    method" — either an app-level call with the callee's own sub-signature
    (super-class / interface dispatch) or a framework API call that receives
    the tainted object at a position whose declared type indicates the
    callee's interface (callbacks and asynchronous flows).  The whole call
    chain is maintained so the backward analysis does not pick up unrelated
    flows. *)

open Ir

type advanced_caller = {
  caller : Jsig.meth;
      (** chain head: the method where the tracked object is created *)
  obj_local : string;    (** local holding the object in [caller] *)
  obj_site : int;        (** allocation (or escape) site in [caller] *)
  chain : (Jsig.meth * int) list;
      (** methods the object was propagated through: (method, call site) *)
  ending : Jsig.meth;    (** the ending method *)
  ending_in : Jsig.meth; (** method whose body contains the ending call *)
  ending_site : int;
  ending_invoke : Expr.invoke option;
      (** the ending invocation, for argument mapping at app-level endings *)
}

(* advanced callers kept per callee, statements walked per search, and
   the bound on ReturnStmt escape propagation *)
let max_endings = 16
let max_steps = 4000
let max_return_hops = 2

let m_steps = Obs.Metrics.counter "taint.steps"

(** Supertypes of [cls] (classes and interfaces, app or system) that declare
    [subsig] — the "interface class type" indicators of Sec. IV-B. *)
let indicator_types program cls subsig =
  let declares n =
    match Program.find_class program n with
    | Some c -> Option.is_some (Jclass.find_method_by_subsig c subsig)
    | None -> false
  in
  List.filter declares (Program.ancestors program cls)

type state = {
  program : Program.t;
  callee : Jsig.meth;
  callee_subsig : Sym.t;  (** interned sub-signature of the searched callee *)
  indicators : string list;
  loops : Loopdetect.stats;
  mutable steps : int;
  mutable found : advanced_caller list;
}

let is_system_class st cls =
  match Program.find_class st.program cls with
  | Some c -> c.Jclass.is_system
  | None -> true (* unknown classes behave like framework classes *)

(** Does the invoke [iv] hand a tainted value to a position whose declared
    type is one of the indicator types?  (Ending condition for callbacks and
    asynchronous flows.) *)
let indicator_position st (iv : Expr.invoke) tainted =
  let receiver_hit =
    match iv.base with
    | Some b when tainted b.Value.id -> List.mem iv.callee.Jsig.cls st.indicators
    | Some _ | None -> false
  in
  let arg_hit =
    List.exists2
      (fun (arg : Value.t) ty ->
         match arg, Types.base_class ty with
         | Value.Local l, Some c -> tainted l.Value.id && List.mem c st.indicators
         | _, _ -> false)
      iv.args iv.callee.Jsig.params
  in
  receiver_hit || arg_hit

let record_ending st ~head ~obj_local ~obj_site ~chain ~ending_in ~site iv
    ~app_level =
  Log.debug (fun m ->
      m "advanced search: callee %s reached ending %s in %s (chain %d, %s)"
        (Jsig.meth_to_string st.callee)
        (Jsig.meth_to_string iv.Expr.callee)
        (Jsig.meth_to_string ending_in)
        (List.length chain)
        (if app_level then "app-level" else "framework"));
  if List.length st.found < max_endings then
    st.found <-
      { caller = head; obj_local; obj_site; chain = List.rev chain;
        ending = iv.Expr.callee; ending_in; ending_site = site;
        ending_invoke = (if app_level then Some iv else None) }
      :: st.found

(** Propagate taint through one method body starting at [from_idx].
    [tainted] is the set of tainted local ids in this method.  Returns true
    if a tainted value escapes through a return statement. *)
let rec walk st ~head ~obj_local ~obj_site ~chain ~meth ~body ~from_idx tainted =
  let is_tainted id = Hashtbl.mem tainted id in
  let taint id = Hashtbl.replace tainted id () in
  let value_tainted = function
    | Value.Local l -> is_tainted l.Value.id
    | Value.Const _ -> false
  in
  let escaped = ref false in
  let n = Array.length body in
  let idx = ref from_idx in
  while !idx < n do
    st.steps <- st.steps + 1;
    if st.steps > max_steps then idx := n
    else begin
      (match body.(!idx) with
       | Stmt.Assign (l, Expr.Imm (Value.Local x)) when is_tainted x.Value.id ->
         taint l.Value.id
       | Stmt.Assign (l, Expr.Cast (_, Value.Local x)) when is_tainted x.Value.id ->
         taint l.Value.id
       | Stmt.Assign (l, Expr.Phi ls)
         when List.exists (fun x -> is_tainted x.Value.id) ls ->
         taint l.Value.id
       | Stmt.Assign (l, Expr.Invoke iv) ->
         if handle_invoke st ~head ~obj_local ~obj_site ~chain ~meth ~site:!idx
             ~is_tainted ~value_tainted iv
         then taint l.Value.id
       | Stmt.Invoke iv ->
         ignore
           (handle_invoke st ~head ~obj_local ~obj_site ~chain ~meth ~site:!idx
              ~is_tainted ~value_tainted iv)
       | Stmt.Return (Some (Value.Local x)) when is_tainted x.Value.id ->
         escaped := true
       | Stmt.Assign (_, _) | Stmt.Instance_put _ | Stmt.Static_put _
       | Stmt.Array_put _ | Stmt.Return _ | Stmt.If _ | Stmt.Goto _
       | Stmt.Throw _ | Stmt.Nop -> ());
      incr idx
    end
  done;
  !escaped

(** Handle a (possibly tainted) invocation during forward propagation.
    Returns true when the call's result becomes tainted. *)
and handle_invoke st ~head ~obj_local ~obj_site ~chain ~meth ~site ~is_tainted
    ~value_tainted (iv : Expr.invoke) =
  let receiver_tainted =
    match iv.base with Some b -> is_tainted b.Value.id | None -> false
  in
  let any_arg_tainted = List.exists value_tainted iv.args in
  if not (receiver_tainted || any_arg_tainted) then false
  else if
    (* ending (a): app-level call with the callee's own sub-signature on the
       tainted receiver — super-class and interface dispatch *)
    (* interned: the per-invoke sub-signature render of the old string
       comparison is gone from this hot path *)
    receiver_tainted && Sym.equal (Jsig.subsig_sym iv.callee) st.callee_subsig
  then begin
    record_ending st ~head ~obj_local ~obj_site ~chain ~ending_in:meth ~site iv
      ~app_level:true;
    false
  end
  else if
    (* ending (b): framework API receiving the object at an indicator-typed
       position — callbacks and asynchronous flows *)
    is_system_class st iv.callee.Jsig.cls
    && indicator_position st iv is_tainted
  then begin
    record_ending st ~head ~obj_local ~obj_site ~chain ~ending_in:meth ~site iv
      ~app_level:false;
    false
  end
  else if is_system_class st iv.callee.Jsig.cls then
    (* other framework call: treat builder-style APIs as propagating the
       receiver into the result *)
    receiver_tainted
  else begin
    (* app method: propagate into its body (InvokeStmt propagation) *)
    match Program.find_method st.program iv.callee with
    | None | Some { Jmethod.body = None; _ } -> false
    | Some callee_m ->
      if Jsig.meth_equal iv.callee meth then begin
        Loopdetect.record st.loops Loopdetect.Inner_forward;
        false
      end
      else if Loopdetect.on_path (List.map fst chain) iv.callee
              || Jsig.meth_equal iv.callee head
      then begin
        Loopdetect.record st.loops Loopdetect.Cross_forward;
        false
      end
      else begin
        let body = Option.get callee_m.Jmethod.body in
        let tainted' = Hashtbl.create 8 in
        (* map tainted receiver/args onto callee identity locals *)
        (match iv.base with
         | Some b when is_tainted b.Value.id ->
           (match Jmethod.this_local callee_m with
            | Some l -> Hashtbl.replace tainted' l.Value.id ()
            | None -> ())
         | Some _ | None -> ());
        List.iteri
          (fun i arg ->
             if value_tainted arg then
               match Jmethod.param_local callee_m i with
               | Some l -> Hashtbl.replace tainted' l.Value.id ()
               | None -> ())
          iv.args;
        walk st ~head ~obj_local ~obj_site ~chain:((meth, site) :: chain)
          ~meth:iv.callee ~body ~from_idx:0 tainted'
      end
  end

(** The tainted object escaped [escapee] through its return value: locate
    [escapee]'s callers by basic search and continue the forward taint from
    each call site's result local. *)
let rec follow_return st ~escapee ~hops =
  if hops >= max_return_hops then ()
  else
    (* NOTE: uses program-space call-site recovery; the bytecode search for
       the escapee's own callers happens in the slicer when needed. *)
    Program.iter_classes st.program (fun c ->
        if not c.Jclass.is_system then
          List.iter
            (fun (m : Jmethod.t) ->
               match m.Jmethod.body with
               | None -> ()
               | Some body ->
                 Array.iteri
                   (fun idx stmt ->
                      match stmt with
                      | Stmt.Assign (l, Expr.Invoke iv)
                        when Jsig.meth_equal iv.Expr.callee escapee ->
                        let tainted = Hashtbl.create 4 in
                        Hashtbl.replace tainted l.Value.id ();
                        let escaped =
                          walk st ~head:m.Jmethod.msig ~obj_local:l.Value.id
                            ~obj_site:idx ~chain:[] ~meth:m.Jmethod.msig ~body
                            ~from_idx:(idx + 1) tainted
                        in
                        if escaped then
                          follow_return st ~escapee:m.Jmethod.msig
                            ~hops:(hops + 1)
                      | _ -> ())
                   body)
            c.Jclass.methods)

(** Find advanced callers of [callee] (a method needing the advanced search):
    search each of the callee class's constructors, then run forward object
    taint from every allocation site. *)
let advanced_callers engine loops (callee : Jsig.meth) =
  let attrs =
    if Obs.Span.enabled () then
      [ ("callee", Obs.Span.Str (Sym.to_string (Jsig.meth_sym callee))) ]
    else []
  in
  Obs.Span.with_span ~cat:"slice" ~name:"object-taint" ~attrs @@ fun () ->
  let program = Bytesearch.Engine.program engine in
  let subsig = Jsig.sub_signature callee in
  let st =
    { program; callee; callee_subsig = Jsig.subsig_sym callee;
      indicators = indicator_types program callee.cls subsig;
      loops; steps = 0; found = [] }
  in
  let ctors =
    match Program.find_class program callee.cls with
    | Some c -> Jclass.constructors c
    | None -> []
  in
  let start_from_site (h : Bytesearch.Engine.hit) (ctor : Jmethod.t) =
    match Program.find_method program h.owner with
    | None | Some { Jmethod.body = None; _ } -> ()
    | Some m ->
      let body = Option.get m.Jmethod.body in
      Array.iteri
        (fun idx stmt ->
           match Stmt.invoke stmt with
           | Some iv
             when Jsig.meth_equal iv.Expr.callee ctor.Jmethod.msig
                  && Option.is_some iv.Expr.base ->
             let base = Option.get iv.Expr.base in
             let tainted = Hashtbl.create 8 in
             Hashtbl.replace tainted base.Value.id ();
             let escaped =
               walk st ~head:h.owner ~obj_local:base.Value.id ~obj_site:idx
                 ~chain:[] ~meth:h.owner ~body ~from_idx:(idx + 1) tainted
             in
             if escaped then
               (* the object escapes via return: continue in the callers of
                  this method (ReturnStmt propagation), bounded *)
               follow_return st ~escapee:h.owner ~hops:0
           | Some _ | None -> ())
        body
  in
  List.iter
    (fun (ctor : Jmethod.t) ->
       let dex_sig = Sigformat.to_dex_meth_sym ctor.Jmethod.msig in
       let hits =
         Bytesearch.Engine.run engine (Bytesearch.Query.invocation_sym dex_sig)
       in
       List.iter (fun h -> start_from_site h ctor) hits)
    ctors;
  Obs.Metrics.add m_steps st.steps;
  List.rev st.found
