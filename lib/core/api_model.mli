(** Models of Java / Android APIs for the forward analysis (Sec. V-B:
    "we mimic arithmetic operations and model Android/Java APIs").  Each
    model maps (receiver fact, argument facts) to a result fact, updating
    points-to members where the API stores state. *)

module Api = Framework.Api
val sb_parts_key : string
val intent_action_key : string
val intent_target_key : string

(** Evaluate a framework API call.  Returns [Some fact] when modelled, [None]
    when the generic default (Unknown result) should apply. *)
val eval :
  Ir.Jsig.meth ->
  Facts.t option ->
  Facts.t list -> Facts.t option

(** Arithmetic mimicry for BinopExpr. *)
val binop :
  Ir.Expr.binop ->
  Facts.t -> Facts.t -> Facts.t
