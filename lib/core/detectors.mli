(** Security verdicts over the propagated sink-parameter facts: the
    interpreter for the declarative rule predicates ({!Rules.Rule.pred}).
    The built-in rule set reproduces the paper's crypto (ECB) and SSL
    (hostname verification) detectors exactly. *)

module Sinks = Framework.Sinks
type verdict = Insecure | Secure | Unresolved
val verdict_to_string : verdict -> string

(** Evaluate a rule predicate against one resolved fact. *)
val eval_pred : Ir.Program.t -> Facts.t -> Rules.Rule.pred -> bool

(** Verdict of one rule over one resolved fact: [insecure_when] first, then
    [secure_when], else [Unresolved]. *)
val classify_rule : Ir.Program.t -> Rules.Rule.t -> Facts.t -> verdict

(** Verdict of the built-in rule covering [sink] (compatibility shim for
    sink-centric callers, e.g. the baselines). *)
val classify : Ir.Program.t -> Sinks.t -> Facts.t -> verdict
