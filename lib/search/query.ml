(** Typed bytecode-search commands.  Each constructor corresponds to one kind
    of raw text search BackDroid issues against the dexdump plaintext.

    Payloads are interned symbols: constructing a query interns its search
    signature once, after which cache lookups, postings lookups and
    query equality are integer operations — no command string is rendered
    on the hot path (the query value itself is the cache key).  Use the
    smart constructors below; {!to_command} renders the human-readable
    grep-style command for tracing only. *)

type t =
  | Invocation of Sym.t
      (** dexdump method signature; matches [invoke-*] lines *)
  | New_instance of Sym.t  (** dexdump class descriptor *)
  | Const_class of Sym.t   (** dexdump class descriptor on [const-class] *)
  | Const_string of Sym.t  (** the {e quoted} string literal *)
  | Field_access of Sym.t  (** dexdump field signature; iget/iput/sget/sput *)
  | Static_field_access of Sym.t  (** sget/sput only *)
  | Class_use of Sym.t
      (** class descriptor anywhere in instruction lines of other classes *)
  | Raw of string          (** free-form substring *)

(* Smart constructors from the raw search strings. *)
let invocation s = Invocation (Sym.intern s)
let new_instance s = New_instance (Sym.intern s)
let const_class s = Const_class (Sym.intern s)

(** [const_string s] takes the {e unquoted} literal and interns its quoted
    rendering — the exact operand text of a [const-string] line. *)
let const_string s = Const_string (Sym.intern (Printf.sprintf "%S" s))

let field_access s = Field_access (Sym.intern s)
let static_field_access s = Static_field_access (Sym.intern s)
let class_use s = Class_use (Sym.intern s)
let raw s = Raw s

(* Smart constructors from already-interned symbols (descriptor memos). *)
let invocation_sym s = Invocation s
let const_class_sym s = Const_class s
let static_field_access_sym s = Static_field_access s
let class_use_sym s = Class_use s

let equal (a : t) (b : t) =
  match a, b with
  | Invocation x, Invocation y
  | New_instance x, New_instance y
  | Const_class x, Const_class y
  | Const_string x, Const_string y
  | Field_access x, Field_access y
  | Static_field_access x, Static_field_access y
  | Class_use x, Class_use y -> Sym.equal x y
  | Raw x, Raw y -> String.equal x y
  | _ -> false

let hash (q : t) = Hashtbl.hash q

(** Granularity label used for the per-category cache statistics of
    Sec. IV-F. *)
type category =
  | Cat_caller      (** caller-method (invocation) searches *)
  | Cat_class       (** invoked-class searches *)
  | Cat_field       (** static / instance field searches *)
  | Cat_raw         (** everything else *)

let category = function
  | Invocation _ | New_instance _ -> Cat_caller
  | Const_class _ | Class_use _ -> Cat_class
  | Field_access _ | Static_field_access _ -> Cat_field
  | Const_string _ | Raw _ -> Cat_raw

let category_to_string = function
  | Cat_caller -> "caller"
  | Cat_class -> "class"
  | Cat_field -> "field"
  | Cat_raw -> "raw"

(** Dense index of a category, for per-category counter arrays. *)
let category_index = function
  | Cat_caller -> 0
  | Cat_class -> 1
  | Cat_field -> 2
  | Cat_raw -> 3

let n_categories = 4

(** All categories, in {!category_index} order. *)
let all_categories = [| Cat_caller; Cat_class; Cat_field; Cat_raw |]

(** Raw command string, e.g. ["grep 'invoke-.*, Lcom/foo;.m:()V'"] — for
    trace output only; not a cache key and never rendered on the hot path. *)
let to_command = function
  | Invocation s -> Printf.sprintf "grep 'invoke-.*, %s'" (Sym.to_string s)
  | New_instance s ->
    Printf.sprintf "grep 'new-instance .*, %s'" (Sym.to_string s)
  | Const_class s ->
    Printf.sprintf "grep 'const-class .*, %s'" (Sym.to_string s)
  | Const_string s ->
    Printf.sprintf "grep 'const-string .*, %s'" (Sym.to_string s)
  | Field_access s ->
    Printf.sprintf "grep '[is]\\(get\\|put\\)-.*, %s'" (Sym.to_string s)
  | Static_field_access s ->
    Printf.sprintf "grep 's\\(get\\|put\\)-.*, %s'" (Sym.to_string s)
  | Class_use s -> Printf.sprintf "grep '%s'" (Sym.to_string s)
  | Raw s -> Printf.sprintf "grep '%s'" s
