(** IR values: SSA locals and constants. *)

type local = {
  id : string;    (** register name, e.g. ["$r13"] or ["v2"] *)
  ty : Types.t;
}

type const =
  | Null
  | Int_c of int
  | Long_c of int64
  | Float_c of float
  | Double_c of float
  | Str_c of string
  | Class_c of string  (** [const-class], dotted class name *)

type t =
  | Local of local
  | Const of const

let local_equal a b = String.equal a.id b.id

let const_equal a b =
  match a, b with
  | Null, Null -> true
  | Int_c x, Int_c y -> x = y
  | Long_c x, Long_c y -> Int64.equal x y
  | Float_c x, Float_c y -> Float.equal x y
  | Double_c x, Double_c y -> Float.equal x y
  | Str_c x, Str_c y -> String.equal x y
  | Class_c x, Class_c y -> String.equal x y
  | (Null | Int_c _ | Long_c _ | Float_c _ | Double_c _ | Str_c _ | Class_c _), _
    -> false

let equal a b =
  match a, b with
  | Local x, Local y -> local_equal x y
  | Const x, Const y -> const_equal x y
  | (Local _ | Const _), _ -> false

let const_to_string = function
  | Null -> "null"
  | Int_c i -> string_of_int i
  | Long_c i -> Int64.to_string i ^ "L"
  | Float_c f -> string_of_float f ^ "F"
  | Double_c f -> string_of_float f
  | Str_c s -> Printf.sprintf "%S" s
  | Class_c c -> "class " ^ c

let to_string = function
  | Local l -> l.id
  | Const c -> const_to_string c

let pp ppf v = Fmt.string ppf (to_string v)
