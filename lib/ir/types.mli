(** Java-level types as they appear in Dalvik bytecode and in our Shimple-like
    IR.  Class names use the dotted Java notation ([java.lang.String]); the
    dex-descriptor rendering lives in {!module:Dex.Descriptor}. *)

type t =
    Void
  | Boolean
  | Byte
  | Char
  | Short
  | Int
  | Long
  | Float
  | Double
  | Object of string
  | Array of t
val equal : t -> t -> bool
val compare : t -> t -> int
val to_key : t -> string

(** Element class of a reference type, unwrapping arrays; [None] for
    primitives. *)
val base_class : t -> string option
val to_string : t -> string

(** Parse the Java source notation produced by {!to_string}. *)
val of_string : string -> t
val pp : Format.formatter -> t -> unit
val object_ : t
val string_ : t
val intent : t
val runnable : t
