(** IR values: SSA locals and constants. *)

type local = { id : string; ty : Types.t; }
type const =
    Null
  | Int_c of int
  | Long_c of int64
  | Float_c of float
  | Double_c of float
  | Str_c of string
  | Class_c of string
type t = Local of local | Const of const
val local_equal : local -> local -> bool
val const_equal : const -> const -> bool
val equal : t -> t -> bool
val const_to_string : const -> string
val to_string : t -> string
val pp : Format.formatter -> t -> unit
