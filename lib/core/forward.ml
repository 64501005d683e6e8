(** Forward constant and points-to propagation over the SSG (Sec. V-B).

    The traversal starts with the SSG's static track (off-path <clinit>
    methods populate the global static fact map), then interprets the main
    track from each entry method, descending into invoked app methods and
    following the SSG's asynchronous / ICC / lifecycle continuation edges,
    until the sink statement is executed and the fact of its tracked
    parameter is captured. *)

open Ir
module Sinks = Framework.Sinks

(* interpretation (inlining) depth, and the total statement budget per
   SSG *)
let max_depth = 24
let max_steps = 100_000

type ctx = {
  program : Program.t;
  ssg : Ssg.t;
  statics : (string, Facts.t) Hashtbl.t;  (** global static-field fact map *)
  mutable steps : int;
  mutable sink_fact : Facts.t option;
}

let lookup env id = Option.value ~default:Facts.Unknown (Hashtbl.find_opt env id)

let value_fact env = function
  | Value.Local l -> lookup env l.Value.id
  | Value.Const (Value.Str_c s) -> Facts.Const_str s
  | Value.Const (Value.Int_c i) -> Facts.Const_int i
  | Value.Const Value.Null -> Facts.Unknown
  | Value.Const (Value.Long_c i) -> Facts.Const_int (Int64.to_int i)
  | Value.Const (Value.Float_c _ | Value.Double_c _) -> Facts.Unknown
  | Value.Const (Value.Class_c c) -> Facts.Const_str c

let field_member_key f = Jsig.field_to_string f

let is_system_class ctx cls =
  match Program.find_class ctx.program cls with
  | Some c -> c.Jclass.is_system
  | None -> true

(** Interpret one method.  Returns (return fact, final local environment).
    [visited] is the stack of methods being interpreted, bounding recursion
    and cutting call cycles. *)
let rec eval_method ctx ~visited ~(meth : Jsig.meth) ~this_fact ~arg_facts =
  match Program.find_method ctx.program meth with
  | None | Some { Jmethod.body = None; _ } -> Facts.Unknown, Hashtbl.create 1
  | Some m ->
    let body = Option.get m.Jmethod.body in
    let env = Hashtbl.create 16 in
    let ret = ref Facts.Unknown in
    let n = Array.length body in
    let i = ref 0 in
    while !i < n do
      ctx.steps <- ctx.steps + 1;
      if ctx.steps > max_steps then i := n
      else begin
        let stmt = body.(!i) in
        (* capture the sink parameter when executing the sink statement *)
        if
          Jsig.meth_equal meth ctx.ssg.Ssg.sink_meth
          && !i = ctx.ssg.Ssg.sink_site
        then begin
          match Stmt.invoke stmt with
          | Some iv ->
            (match
               List.nth_opt iv.Expr.args
                 ctx.ssg.Ssg.sink.Sinks.param_index
             with
             | Some v ->
               if ctx.sink_fact = None then ctx.sink_fact <- Some (value_fact env v)
             | None -> ())
          | None -> ()
        end;
        (match stmt with
         | Stmt.Assign (l, e) ->
           Hashtbl.replace env l.Value.id
             (eval_expr ctx ~visited ~env ~this_fact ~arg_facts e)
         | Stmt.Instance_put (o, f, v) ->
           (match lookup env o.Value.id with
            | Facts.New_obj obj ->
              Hashtbl.replace obj.members (field_member_key f) (value_fact env v)
            | _ -> ())
         | Stmt.Static_put (f, v) ->
           Hashtbl.replace ctx.statics (Jsig.field_to_string f) (value_fact env v)
         | Stmt.Array_put (a, idx, v) ->
           (match lookup env a.Value.id, value_fact env idx with
            | Facts.Arr arr, Facts.Const_int k ->
              Hashtbl.replace arr.cells k (value_fact env v)
            | _, _ -> ())
         | Stmt.Invoke iv ->
           ignore (eval_invoke ctx ~visited ~env iv)
         | Stmt.Return v ->
           (match v with
            | Some v -> ret := value_fact env v
            | None -> ());
           i := n
         | Stmt.If _ | Stmt.Goto _ ->
           (* fall through: generated bodies are effectively straight-line *)
           ()
         | Stmt.Throw _ -> i := n
         | Stmt.Nop -> ());
        incr i
      end
    done;
    (* follow the SSG continuation edges out of this frame (async callees,
       ICC handlers, lifecycle successors) with this frame's environment —
       they may hang off any method on the path, not just the entry *)
    follow_continuations ctx ~visited ~meth ~env ~this_fact;
    !ret, env

and eval_expr ctx ~visited ~env ~this_fact ~arg_facts (e : Expr.t) =
  match e with
  | Expr.Imm v -> value_fact env v
  | Expr.Binop (op, a, b) -> Api_model.binop op (value_fact env a) (value_fact env b)
  | Expr.Cast (_, v) -> value_fact env v
  | Expr.New c -> Facts.new_obj c
  | Expr.New_array (t, _) -> Facts.new_arr t
  | Expr.Array_get (a, idx) ->
    (match lookup env a.Value.id, value_fact env idx with
     | Facts.Arr arr, Facts.Const_int k ->
       Option.value ~default:Facts.Unknown (Hashtbl.find_opt arr.cells k)
     | _, _ -> Facts.Unknown)
  | Expr.Instance_get (o, f) ->
    (match lookup env o.Value.id with
     | Facts.New_obj obj ->
       Option.value ~default:Facts.Unknown
         (Hashtbl.find_opt obj.members (field_member_key f))
     | _ -> Facts.Unknown)
  | Expr.Static_get f ->
    (match Hashtbl.find_opt ctx.statics (Jsig.field_to_string f) with
     | Some fact -> fact
     | None -> Facts.Static_ref f)
  | Expr.Phi ls ->
    List.fold_left
      (fun acc l -> Facts.join acc (lookup env l.Value.id))
      Facts.Unknown ls
  | Expr.Param i ->
    (match List.nth_opt arg_facts i with
     | Some f -> f
     | None -> Facts.Framework_input)
  | Expr.This -> this_fact
  | Expr.Caught_exception -> Facts.Unknown
  | Expr.Length v ->
    (match value_fact env v with
     | Facts.Arr a -> Facts.Const_int (Hashtbl.length a.cells)
     | _ -> Facts.Unknown)
  | Expr.Invoke iv -> eval_invoke ctx ~visited ~env iv

and eval_invoke ctx ~visited ~env (iv : Expr.invoke) =
  let recv = Option.map (fun b -> lookup env b.Value.id) iv.base in
  let args = List.map (value_fact env) iv.args in
  match Api_model.eval iv.callee recv args with
  | Some f -> f
  | None ->
    if is_system_class ctx iv.callee.Jsig.cls then
      (* unmodelled framework API *)
      Facts.Unknown
    else if List.length visited >= max_depth then Facts.Unknown
    else if List.exists (Jsig.meth_equal iv.callee) visited then Facts.Unknown
    else begin
      (* resolve the invoked body: direct hit or CHA walk up for calls
         through a supertype signature *)
      let target =
        match Program.find_method ctx.program iv.callee with
        | Some { Jmethod.body = Some _; _ } -> Some iv.callee
        | Some _ | None ->
          (* a call through an interface / supertype: use the points-to class
             of the receiver to pick the override *)
          (match recv with
           | Some (Facts.New_obj o) ->
             (match
                Program.resolve_method ctx.program o.Facts.cls
                  (Jsig.sub_signature iv.callee)
              with
              | Some (_, m) when m.Jmethod.body <> None -> Some m.Jmethod.msig
              | Some _ | None -> None)
           | _ -> None)
      in
      match target with
      | None -> Facts.Unknown
      | Some callee ->
        let this_fact = Option.value ~default:Facts.Unknown recv in
        let ret, _ =
          eval_method ctx ~visited:(callee :: visited) ~meth:callee ~this_fact
            ~arg_facts:args
        in
        ret
    end

(** Follow the SSG continuation edges out of a frame: asynchronous callees
    run with the constructor object as [this]; ICC handlers run with the
    Intent built at the ICC site; lifecycle successors share the same
    component instance. *)
and follow_continuations ctx ~visited ~meth ~env ~this_fact =
  List.iter
    (fun edge ->
       match edge with
       | Ssg.Async { ctor_local; callee; _ } ->
         let this' = lookup env ctor_local in
         if not (List.exists (Jsig.meth_equal callee) visited) then
           ignore
             (eval_method ctx ~visited:(callee :: visited) ~meth:callee
                ~this_fact:this' ~arg_facts:[])
       | Ssg.Icc { caller; site; handler } when Jsig.meth_equal caller meth ->
         let intent_fact =
           match Program.find_method ctx.program caller with
           | Some { Jmethod.body = Some body; _ } when site < Array.length body ->
             (match Stmt.invoke body.(site) with
              | Some icc_iv ->
                (match icc_iv.Expr.args with
                 | [ Value.Local l ] -> lookup env l.Value.id
                 | _ -> Facts.Unknown)
              | None -> Facts.Unknown)
           | _ -> Facts.Unknown
         in
         let handler_args =
           match Program.find_method ctx.program handler with
           | Some hm ->
             List.map
               (fun ty ->
                  if Types.equal ty Types.intent then intent_fact
                  else Facts.Framework_input)
               hm.Jmethod.msig.Jsig.params
           | None -> []
         in
         if not (List.exists (Jsig.meth_equal handler) visited) then
           ignore
             (eval_method ctx ~visited:(handler :: visited) ~meth:handler
                ~this_fact:(Facts.new_obj handler.Jsig.cls)
                ~arg_facts:handler_args)
       | Ssg.Lifecycle { handler; _ } ->
         (* the successor handler runs on the same component instance *)
         if not (List.exists (Jsig.meth_equal handler) visited) then
           ignore
             (eval_method ctx ~visited:(handler :: visited) ~meth:handler
                ~this_fact ~arg_facts:[])
       | Ssg.Icc _ | Ssg.Call _ | Ssg.Contained _ -> ())
    (Ssg.continuations_of ctx.ssg meth)

(* ------------------------------------------------------------------ *)
(* SSG traversal                                                       *)

let eval_and_continue ctx ~visited ~meth ~this_fact ~arg_facts =
  ignore (eval_method ctx ~visited ~meth ~this_fact ~arg_facts)

(** Run the forward analysis over one SSG.  Returns the dataflow fact of the
    sink's tracked parameter (Unknown when the traversal cannot resolve
    it). *)
let m_steps = Obs.Metrics.counter "forward.steps"

let run program (ssg : Ssg.t) =
  Obs.Span.with_span ~cat:"forward" ~name:"propagate" @@ fun () ->
  let ctx =
    { program; ssg; statics = Hashtbl.create 16; steps = 0;
      sink_fact = None }
  in
  (* 1. the special static-field track *)
  List.iter
    (fun clinit ->
       ignore
         (eval_method ctx ~visited:[ clinit ] ~meth:clinit
            ~this_fact:Facts.Unknown ~arg_facts:[]))
    ssg.Ssg.static_track;
  (* 2. the main track, from each entry method (lifecycle successors are
     reached through their predecessor's continuation edge, so skip entries
     that appear as a Lifecycle handler target) *)
  let lifecycle_targets =
    List.filter_map
      (function Ssg.Lifecycle { handler; _ } -> Some handler | _ -> None)
      ssg.Ssg.edges
  in
  List.iter
    (fun entry ->
       if ctx.sink_fact = None
          && not (List.exists (Jsig.meth_equal entry) lifecycle_targets)
       then
         eval_and_continue ctx ~visited:[ entry ] ~meth:entry
           ~this_fact:(Facts.new_obj entry.Jsig.cls) ~arg_facts:[])
    ssg.Ssg.entry_methods;
  Obs.Metrics.add m_steps ctx.steps;
  Option.value ~default:Facts.Unknown ctx.sink_fact
