(** Typed bytecode-search commands.  Each constructor corresponds to one kind
    of raw text search BackDroid issues against the dexdump plaintext.

    Payloads are interned symbols: constructing a query interns its search
    signature once, after which cache lookups, postings lookups and query
    equality are integer operations — the query value itself is the cache
    key, and no command string is rendered on the hot path. *)

type t =
    Invocation of Sym.t
  | New_instance of Sym.t
  | Const_class of Sym.t
  | Const_string of Sym.t  (** the {e quoted} literal *)
  | Field_access of Sym.t
  | Static_field_access of Sym.t
  | Class_use of Sym.t
  | Raw of string

(** Smart constructors from the raw search strings (interning once). *)
val invocation : string -> t
val new_instance : string -> t
val const_class : string -> t

(** [const_string s] takes the {e unquoted} literal and interns its quoted
    rendering — the exact operand text of a [const-string] line. *)
val const_string : string -> t

val field_access : string -> t
val static_field_access : string -> t
val class_use : string -> t
val raw : string -> t

(** Smart constructors from already-interned symbols (the descriptor memos
    of [Dex.Descriptor]) — allocation-free query construction. *)
val invocation_sym : Sym.t -> t
val const_class_sym : Sym.t -> t
val static_field_access_sym : Sym.t -> t
val class_use_sym : Sym.t -> t

(** O(1): symbol payloads compare by id. *)
val equal : t -> t -> bool
val hash : t -> int

(** Granularity label used for the per-category cache statistics of
    Sec. IV-F. *)
type category = Cat_caller | Cat_class | Cat_field | Cat_raw
val category : t -> category
val category_to_string : category -> string

(** Dense index of a category (for per-category counter arrays). *)
val category_index : category -> int

val n_categories : int

(** All categories, in {!category_index} order. *)
val all_categories : category array

(** Human-readable grep-style command, e.g.
    ["grep 'invoke-.*, Lcom/foo;.m:()V'"] — for trace output only. *)
val to_command : t -> string
