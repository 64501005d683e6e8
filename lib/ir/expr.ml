(** Expressions on the right-hand side of IR statements.

    The slicing and forward analyses of the paper only distinguish six kinds
    of statement expressions — BinopExpr, CastExpr, InvokeExpr, NewExpr,
    NewArrayExpr and PhiExpr — plus field/array references and the identity
    expressions binding parameters and [this]. *)

type binop =
  | Add | Sub | Mul | Div | Rem
  | Band | Bor | Bxor | Shl | Shr | Ushr
  | Cmp
  | Eq | Ne | Lt | Le | Gt | Ge

type invoke_kind = Virtual | Special | Static | Interface

type invoke = {
  kind : invoke_kind;
  callee : Jsig.meth;
  base : Value.local option;  (** receiver; [None] for static invokes *)
  args : Value.t list;
}

type t =
  | Imm of Value.t                          (** copy / constant load *)
  | Binop of binop * Value.t * Value.t
  | Cast of Types.t * Value.t
  | Invoke of invoke
  | New of string                           (** [new-instance] *)
  | New_array of Types.t * Value.t          (** element type, length *)
  | Array_get of Value.local * Value.t      (** [aget]: array, index *)
  | Instance_get of Value.local * Jsig.field  (** [iget] *)
  | Static_get of Jsig.field                (** [sget] *)
  | Phi of Value.local list
  | Param of int                            (** [@parameterN] identity *)
  | This                                    (** [@this] identity *)
  | Caught_exception
  | Length of Value.t                       (** [array-length] *)

let binop_to_string = function
  | Add -> "+" | Sub -> "-" | Mul -> "*" | Div -> "/" | Rem -> "%"
  | Band -> "&" | Bor -> "|" | Bxor -> "^" | Shl -> "<<" | Shr -> ">>"
  | Ushr -> ">>>" | Cmp -> "cmp"
  | Eq -> "==" | Ne -> "!=" | Lt -> "<" | Le -> "<=" | Gt -> ">" | Ge -> ">="

let invoke_kind_to_string = function
  | Virtual -> "virtualinvoke"
  | Special -> "specialinvoke"
  | Static -> "staticinvoke"
  | Interface -> "interfaceinvoke"

(** All values read by an expression (receiver included for invokes). *)
let uses = function
  | Imm v -> [ v ]
  | Binop (_, a, b) -> [ a; b ]
  | Cast (_, v) -> [ v ]
  | Invoke { base; args; _ } ->
    (match base with Some b -> Value.Local b :: args | None -> args)
  | New _ -> []
  | New_array (_, n) -> [ n ]
  | Array_get (a, i) -> [ Value.Local a; i ]
  | Instance_get (o, _) -> [ Value.Local o ]
  | Static_get _ -> []
  | Phi ls -> List.map (fun l -> Value.Local l) ls
  | Param _ | This | Caught_exception -> []
  | Length v -> [ v ]

let to_string e =
  match e with
  | Imm v -> Value.to_string v
  | Binop (op, a, b) ->
    Printf.sprintf "%s %s %s" (Value.to_string a) (binop_to_string op)
      (Value.to_string b)
  | Cast (t, v) -> Printf.sprintf "(%s) %s" (Types.to_string t) (Value.to_string v)
  | Invoke { kind; callee; base; args } ->
    let args_s = String.concat ", " (List.map Value.to_string args) in
    (match base with
     | Some b ->
       Printf.sprintf "%s %s.%s(%s)" (invoke_kind_to_string kind) b.Value.id
         (Jsig.meth_to_string callee) args_s
     | None ->
       Printf.sprintf "%s %s(%s)" (invoke_kind_to_string kind)
         (Jsig.meth_to_string callee) args_s)
  | New c -> "new " ^ c
  | New_array (t, n) ->
    Printf.sprintf "newarray (%s)[%s]" (Types.to_string t) (Value.to_string n)
  | Array_get (a, i) -> Printf.sprintf "%s[%s]" a.Value.id (Value.to_string i)
  | Instance_get (o, f) ->
    Printf.sprintf "%s.%s" o.Value.id (Jsig.field_to_string f)
  | Static_get f -> Jsig.field_to_string f
  | Phi ls -> "Phi(" ^ String.concat ", " (List.map (fun l -> l.Value.id) ls) ^ ")"
  | Param i -> Printf.sprintf "@parameter%d" i
  | This -> "@this"
  | Caught_exception -> "@caughtexception"
  | Length v -> "lengthof " ^ Value.to_string v

let pp ppf e = Fmt.string ppf (to_string e)
