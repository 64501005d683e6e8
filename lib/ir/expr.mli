(** Expressions on the right-hand side of IR statements.

    The slicing and forward analyses of the paper only distinguish six kinds
    of statement expressions — BinopExpr, CastExpr, InvokeExpr, NewExpr,
    NewArrayExpr and PhiExpr — plus field/array references and the identity
    expressions binding parameters and [this]. *)

type binop =
    Add
  | Sub
  | Mul
  | Div
  | Rem
  | Band
  | Bor
  | Bxor
  | Shl
  | Shr
  | Ushr
  | Cmp
  | Eq
  | Ne
  | Lt
  | Le
  | Gt
  | Ge
type invoke_kind = Virtual | Special | Static | Interface
type invoke = {
  kind : invoke_kind;
  callee : Jsig.meth;
  base : Value.local option;
  args : Value.t list;
}
type t =
    Imm of Value.t
  | Binop of binop * Value.t * Value.t
  | Cast of Types.t * Value.t
  | Invoke of invoke
  | New of string
  | New_array of Types.t * Value.t
  | Array_get of Value.local * Value.t
  | Instance_get of Value.local * Jsig.field
  | Static_get of Jsig.field
  | Phi of Value.local list
  | Param of int
  | This
  | Caught_exception
  | Length of Value.t
val binop_to_string : binop -> string
val invoke_kind_to_string : invoke_kind -> string

(** All values read by an expression (receiver included for invokes). *)
val uses : t -> Value.t list
val to_string : t -> string
val pp : Format.formatter -> t -> unit
