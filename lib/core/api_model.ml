(** Models of Java / Android APIs for the forward analysis (Sec. V-B:
    "we mimic arithmetic operations and model Android/Java APIs").  Each
    model maps (receiver fact, argument facts) to a result fact, updating
    points-to members where the API stores state. *)

open Ir
module Api = Framework.Api

let sb_parts_key = "<sb-parts>"
let intent_action_key = "<intent-action>"
let intent_target_key = "<intent-target>"

(** Evaluate a framework API call.  Returns [Some fact] when modelled, [None]
    when the generic default (Unknown result) should apply. *)
let eval (callee : Jsig.meth) (recv : Facts.t option) (args : Facts.t list) =
  let str_concat parts =
    let rec go acc = function
      | [] -> Some (Facts.Const_str acc)
      | Facts.Const_str s :: rest -> go (acc ^ s) rest
      | Facts.Const_int i :: rest -> go (acc ^ string_of_int i) rest
      | _ -> None
    in
    go "" parts
  in
  if Jsig.meth_equal callee Api.string_builder_init then Some Facts.Unknown
  else if Jsig.meth_equal callee Api.string_builder_append then begin
    (match recv with
     | Some (Facts.New_obj o) ->
       let parts =
         match Hashtbl.find_opt o.members sb_parts_key with
         | Some (Facts.Arr a) ->
           let n = Hashtbl.length a.cells in
           Hashtbl.replace a.cells n
             (match args with x :: _ -> x | [] -> Facts.Unknown);
           Facts.Arr a
         | _ ->
           let a = { Facts.elem = Types.string_; cells = Hashtbl.create 4 } in
           Hashtbl.replace a.cells 0
             (match args with x :: _ -> x | [] -> Facts.Unknown);
           Facts.Arr a
       in
       Hashtbl.replace o.members sb_parts_key parts;
       Some (Facts.New_obj o)
     | _ -> Some Facts.Unknown)
  end
  else if Jsig.meth_equal callee Api.string_builder_to_string then begin
    match recv with
    | Some (Facts.New_obj o) ->
      (match Hashtbl.find_opt o.members sb_parts_key with
       | Some (Facts.Arr a) ->
         let parts =
           List.init (Hashtbl.length a.cells) (fun i ->
               Option.value ~default:Facts.Unknown (Hashtbl.find_opt a.cells i))
         in
         (match str_concat parts with
          | Some f -> Some f
          | None -> Some (Facts.Sym "string-builder"))
       | _ -> Some (Facts.Sym "string-builder"))
    | _ -> Some Facts.Unknown
  end
  else if Jsig.meth_equal callee Api.string_value_of_int then begin
    match args with
    | [ Facts.Const_int i ] -> Some (Facts.Const_str (string_of_int i))
    | _ -> Some (Facts.Sym "String.valueOf")
  end
  else if Jsig.meth_equal callee Api.intent_put_extra then begin
    (match recv, args with
     | Some (Facts.New_obj o), [ Facts.Const_str key; v ] ->
       Hashtbl.replace o.members key v;
       Some (Facts.New_obj o)
     | Some f, _ -> Some f
     | None, _ -> Some Facts.Unknown)
  end
  else if Jsig.meth_equal callee Api.intent_get_string_extra then begin
    match recv, args with
    | Some (Facts.New_obj o), [ Facts.Const_str key ] ->
      Some (Option.value ~default:Facts.Unknown (Hashtbl.find_opt o.members key))
    | Some Facts.Framework_input, _ -> Some Facts.Framework_input
    | _, _ -> Some Facts.Unknown
  end
  else if Jsig.meth_equal callee Api.activity_get_intent then
    (* the launching Intent of an entry component: framework-provided data
       unless an in-app ICC edge already bound a concrete Intent object *)
    Some Facts.Framework_input
  else if Jsig.meth_equal callee Api.intent_set_action then begin
    (match recv, args with
     | Some (Facts.New_obj o), [ v ] ->
       Hashtbl.replace o.members intent_action_key v;
       Some (Facts.New_obj o)
     | Some f, _ -> Some f
     | None, _ -> Some Facts.Unknown)
  end
  else if Jsig.meth_equal callee Api.intent_init_explicit then begin
    (match recv, args with
     | Some (Facts.New_obj o), [ _ctx; target ] ->
       Hashtbl.replace o.members intent_target_key target;
       Some (Facts.New_obj o)
     | _, _ -> Some Facts.Unknown)
  end
  else None

(** Arithmetic mimicry for BinopExpr. *)
let binop op (a : Facts.t) (b : Facts.t) =
  match op, a, b with
  | Expr.Add, Facts.Const_int x, Facts.Const_int y -> Facts.Const_int (x + y)
  | Expr.Sub, Facts.Const_int x, Facts.Const_int y -> Facts.Const_int (x - y)
  | Expr.Mul, Facts.Const_int x, Facts.Const_int y -> Facts.Const_int (x * y)
  | Expr.Div, Facts.Const_int x, Facts.Const_int y when y <> 0 ->
    Facts.Const_int (x / y)
  | Expr.Rem, Facts.Const_int x, Facts.Const_int y when y <> 0 ->
    Facts.Const_int (x mod y)
  | Expr.Band, Facts.Const_int x, Facts.Const_int y -> Facts.Const_int (x land y)
  | Expr.Bor, Facts.Const_int x, Facts.Const_int y -> Facts.Const_int (x lor y)
  | Expr.Bxor, Facts.Const_int x, Facts.Const_int y -> Facts.Const_int (x lxor y)
  | Expr.Shl, Facts.Const_int x, Facts.Const_int y -> Facts.Const_int (x lsl y)
  | Expr.Shr, Facts.Const_int x, Facts.Const_int y -> Facts.Const_int (x asr y)
  | (Expr.Eq | Expr.Ne | Expr.Lt | Expr.Le | Expr.Gt | Expr.Ge),
    Facts.Const_int x, Facts.Const_int y ->
    let r =
      match op with
      | Expr.Eq -> x = y | Expr.Ne -> x <> y | Expr.Lt -> x < y
      | Expr.Le -> x <= y | Expr.Gt -> x > y | Expr.Ge -> x >= y
      | _ -> false
    in
    Facts.Const_int (if r then 1 else 0)
  | _, _, _ ->
    Facts.sym
      (Printf.sprintf "%s %s %s" (Facts.to_string a) (Expr.binop_to_string op)
         (Facts.to_string b))
