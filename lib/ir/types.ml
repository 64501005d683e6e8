(** Java-level types as they appear in Dalvik bytecode and in our Shimple-like
    IR.  Class names use the dotted Java notation ([java.lang.String]); the
    dex-descriptor rendering lives in {!module:Dex.Descriptor}. *)

type t =
  | Void
  | Boolean
  | Byte
  | Char
  | Short
  | Int
  | Long
  | Float
  | Double
  | Object of string  (** fully-qualified dotted class name *)
  | Array of t

let rec equal a b =
  match a, b with
  | Void, Void | Boolean, Boolean | Byte, Byte | Char, Char | Short, Short
  | Int, Int | Long, Long | Float, Float | Double, Double -> true
  | Object x, Object y -> String.equal x y
  | Array x, Array y -> equal x y
  | ( Void | Boolean | Byte | Char | Short | Int | Long | Float | Double
    | Object _ | Array _ ), _ -> false

let rec compare a b = Stdlib.compare (to_key a) (to_key b)

and to_key t =
  match t with
  | Void -> "V" | Boolean -> "Z" | Byte -> "B" | Char -> "C" | Short -> "S"
  | Int -> "I" | Long -> "J" | Float -> "F" | Double -> "D"
  | Object c -> "L" ^ c ^ ";"
  | Array e -> "[" ^ to_key e

(** Element class of a reference type, unwrapping arrays; [None] for
    primitives. *)
let rec base_class = function
  | Object c -> Some c
  | Array e -> base_class e
  | Void | Boolean | Byte | Char | Short | Int | Long | Float | Double -> None

let rec to_string = function
  | Void -> "void"
  | Boolean -> "boolean"
  | Byte -> "byte"
  | Char -> "char"
  | Short -> "short"
  | Int -> "int"
  | Long -> "long"
  | Float -> "float"
  | Double -> "double"
  | Object c -> c
  | Array e -> to_string e ^ "[]"

(** Parse the Java source notation produced by {!to_string}. *)
let of_string s =
  let rec wrap n t = if n = 0 then t else wrap (n - 1) (Array t) in
  let rec count_arrays s n =
    let len = String.length s in
    if len >= 2 && String.sub s (len - 2) 2 = "[]" then
      count_arrays (String.sub s 0 (len - 2)) (n + 1)
    else s, n
  in
  let base, dims = count_arrays (String.trim s) 0 in
  let t =
    match base with
    | "void" -> Void
    | "boolean" -> Boolean
    | "byte" -> Byte
    | "char" -> Char
    | "short" -> Short
    | "int" -> Int
    | "long" -> Long
    | "float" -> Float
    | "double" -> Double
    | c -> Object c
  in
  wrap dims t

let pp ppf t = Fmt.string ppf (to_string t)

(* Convenience constructors for frequently used reference types. *)
let object_ = Object "java.lang.Object"
let string_ = Object "java.lang.String"
let intent = Object "android.content.Intent"
let runnable = Object "java.lang.Runnable"
