(** Security verdicts over the propagated sink-parameter facts.

    The verdict logic is data now: each {!Rules.Rule.t} carries an
    [insecure_when] / [secure_when] predicate pair over the resolved fact,
    and this module is their interpreter (it lives here rather than in the
    [Rules] library because the verifier-body predicates need the program).
    The built-in rule set ({!Rules.Builtin.primary}) encodes exactly the
    crypto (ECB) and SSL (hostname verification) misuse detectors of the
    paper's evaluation, so default verdicts are unchanged. *)

open Ir
module Sinks = Framework.Sinks

type verdict =
  | Insecure
  | Secure
  | Unresolved  (** the dataflow representation did not decide the verdict *)

let verdict_to_string = function
  | Insecure -> "INSECURE"
  | Secure -> "secure"
  | Unresolved -> "unresolved"

(* The integer constant a named method of [cls] provably returns, if any —
   the generalized form the Verifier_* predicates evaluate. *)
let method_returns_const program cls ~name =
  match Program.find_class program cls with
  | None -> None
  | Some c ->
    (match
       List.find_opt
         (fun (m : Jmethod.t) -> String.equal m.msig.Jsig.name name)
         c.methods
     with
     | Some { Jmethod.body = Some body; _ } ->
       Array.fold_left
         (fun acc st ->
            match st with
            | Stmt.Return (Some (Value.Const (Value.Int_c i))) -> Some i
            | _ -> acc)
         None body
     | Some _ | None -> None)

(* ------------------------------------------------------------------ *)
(* Predicate interpreter *)

let fact_shape (fact : Facts.t) : Rules.Rule.shape =
  match fact with
  | Facts.Const_str _ -> Rules.Rule.Const_str
  | Facts.Const_int _ -> Rules.Rule.Const_int
  | Facts.New_obj _ -> Rules.Rule.New_obj
  | Facts.Arr _ -> Rules.Rule.Arr
  | Facts.Static_ref _ -> Rules.Rule.Static_ref
  | Facts.Framework_input -> Rules.Rule.Framework_input
  | Facts.Sym _ -> Rules.Rule.Symbolic
  | Facts.Unknown -> Rules.Rule.Unknown

let str_contains ~sub s =
  let ls = String.length s and lb = String.length sub in
  let rec at i = i + lb <= ls && (String.sub s i lb = sub || at (i + 1)) in
  lb = 0 || at 0

(** Evaluate a rule predicate against one resolved fact. *)
let rec eval_pred program (fact : Facts.t) (p : Rules.Rule.pred) =
  match p with
  | Rules.Rule.True -> true
  | Rules.Rule.False -> false
  | Rules.Rule.Fact_is shape -> fact_shape fact = shape
  | Rules.Rule.Str_contains sub ->
    (match fact with Facts.Const_str s -> str_contains ~sub s | _ -> false)
  | Rules.Rule.Str_eq v ->
    (match fact with Facts.Const_str s -> String.equal s v | _ -> false)
  | Rules.Rule.Int_eq v ->
    (match fact with Facts.Const_int i -> i = v | _ -> false)
  | Rules.Rule.Field_is { cls; name } ->
    (match fact with
     | Facts.Static_ref f ->
       String.equal f.Jsig.fcls cls && String.equal f.Jsig.fname name
     | _ -> false)
  | Rules.Rule.Class_in classes ->
    (match fact with
     | Facts.New_obj o -> List.exists (String.equal o.Facts.cls) classes
     | _ -> false)
  | Rules.Rule.Verifier_returns { name; value } ->
    (match fact with
     | Facts.New_obj o ->
       method_returns_const program o.Facts.cls ~name = Some value
     | _ -> false)
  | Rules.Rule.Verifier_resolves { name } ->
    (match fact with
     | Facts.New_obj o ->
       method_returns_const program o.Facts.cls ~name <> None
     | _ -> false)
  | Rules.Rule.All ps -> List.for_all (eval_pred program fact) ps
  | Rules.Rule.Any ps -> List.exists (eval_pred program fact) ps
  | Rules.Rule.Not p -> not (eval_pred program fact p)

(** Verdict of one rule over one resolved fact: [insecure_when] first, then
    [secure_when], else the dataflow did not decide. *)
let classify_rule program (rule : Rules.Rule.t) (fact : Facts.t) =
  if eval_pred program fact rule.Rules.Rule.insecure_when then Insecure
  else if eval_pred program fact rule.Rules.Rule.secure_when then Secure
  else Unresolved

(* ------------------------------------------------------------------ *)
(* Compatibility shims over the built-in rule set — the baselines (and any
   caller that thinks in sinks, not rules) map a sink occurrence to the
   built-in rule covering its signature. *)

let classify program (sink : Sinks.t) (fact : Facts.t) =
  match Rules.Builtin.rule_for_sink sink with
  | Some rule -> classify_rule program rule fact
  | None -> Unresolved
