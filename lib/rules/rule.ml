(** Declarative detection rules.

    A rule bundles what the hard-coded detection spine used to spread over
    three modules: the sink API signature(s) to search for, the
    argument-of-interest the slicer backtracks (the taint policy), and the
    verdict predicates evaluated over the resolved {e fact} the forward
    analysis produces.  The rule's [name]/[description] double as the report
    schema — every finding is labelled with them.

    The predicate language is deliberately first-order over fact shapes: the
    interpreter lives in [Backdroid.Detectors] (it needs the program for the
    verifier-body checks), this module is pure data so it can sit below the
    core analysis in the dependency order. *)

(** The generic resolved-argument shapes verdict predicates match on —
    mirrors the constructors of [Backdroid.Facts.t]. *)
type shape =
  | Const_str        (** a resolved string constant *)
  | Const_int        (** a resolved integer constant *)
  | New_obj          (** an object allocation with a known class *)
  | Arr              (** an array value *)
  | Static_ref       (** a read of a known static field *)
  | Framework_input  (** data originating outside the app (e.g. a launching
                         Intent of an exported component) *)
  | Symbolic         (** a symbolic/joined value *)
  | Unknown

let shape_to_string = function
  | Const_str -> "const-str"
  | Const_int -> "const-int"
  | New_obj -> "new-obj"
  | Arr -> "arr"
  | Static_ref -> "static-ref"
  | Framework_input -> "framework-input"
  | Symbolic -> "symbolic"
  | Unknown -> "unknown"

let shape_of_string = function
  | "const-str" -> Some Const_str
  | "const-int" -> Some Const_int
  | "new-obj" -> Some New_obj
  | "arr" -> Some Arr
  | "static-ref" -> Some Static_ref
  | "framework-input" -> Some Framework_input
  | "symbolic" -> Some Symbolic
  | "unknown" -> Some Unknown
  | _ -> None

(** Verdict predicates over one resolved fact. *)
type pred =
  | True
  | False
  | Fact_is of shape
  | Str_contains of string   (** fact is a string constant containing [s] *)
  | Str_eq of string
  | Int_eq of int
  | Field_is of { cls : string; name : string }
      (** fact is a static-field reference to exactly this field *)
  | Class_in of string list
      (** fact is an allocation of one of these classes *)
  | Verifier_returns of { name : string; value : int }
      (** fact is an allocation whose method [name] provably returns the
          integer constant [value] (e.g. an allow-all [verify]) *)
  | Verifier_resolves of { name : string }
      (** fact is an allocation whose method [name] returns {e some}
          resolvable integer constant *)
  | All of pred list
  | Any of pred list
  | Not of pred

type t = {
  name : string;
  description : string;
  sinks : Framework.Sinks.t list;
      (** sink signatures sharing this rule; each carries the
          argument-of-interest its slicing pass backtracks *)
  insecure_when : pred;  (** checked first *)
  secure_when : pred;    (** checked if [insecure_when] does not hold *)
}

(* ------------------------------------------------------------------ *)
(* Canonical rendering — the rule-file syntax.  [Parse.rules_of_string]
   reads this format back; the ruleset content hash is computed over it so
   equal rule sets hash equally however they were constructed. *)

let quote s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
       match c with
       | '"' -> Buffer.add_string b "\\\""
       | '\\' -> Buffer.add_string b "\\\\"
       | '\n' -> Buffer.add_string b "\\n"
       | '\t' -> Buffer.add_string b "\\t"
       | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* An atom as the reader reads it back: bare when a bare atom spells it,
   else quoted. *)
let atom s =
  if s <> "" && String.for_all Sexp.is_bare_char s then s else quote s

let rec pred_to_source = function
  | True -> "true"
  | False -> "false"
  | Fact_is s -> Printf.sprintf "(fact-is %s)" (shape_to_string s)
  | Str_contains s -> Printf.sprintf "(str-contains %s)" (quote s)
  | Str_eq s -> Printf.sprintf "(str-eq %s)" (quote s)
  | Int_eq n -> Printf.sprintf "(int-eq %d)" n
  | Field_is { cls; name } ->
    Printf.sprintf "(field-is %s %s)" (atom cls) (atom name)
  | Class_in cs ->
    Printf.sprintf "(class-in %s)" (String.concat " " (List.map atom cs))
  | Verifier_returns { name; value } ->
    Printf.sprintf "(verifier-returns %s %d)" (atom name) value
  | Verifier_resolves { name } ->
    Printf.sprintf "(verifier-resolves %s)" (atom name)
  | All ps ->
    Printf.sprintf "(all %s)" (String.concat " " (List.map pred_to_source ps))
  | Any ps ->
    Printf.sprintf "(any %s)" (String.concat " " (List.map pred_to_source ps))
  | Not p -> Printf.sprintf "(not %s)" (pred_to_source p)

let sink_to_source (s : Framework.Sinks.t) =
  let m = s.Framework.Sinks.msig in
  Printf.sprintf
    "  (sink (class %s) (method %s) (params%s) (return %s) (arg %d) (label %s))"
    (atom m.Ir.Jsig.cls) (atom m.Ir.Jsig.name)
    (String.concat ""
       (List.map (fun t -> " " ^ atom (Ir.Types.to_string t)) m.Ir.Jsig.params))
    (atom (Ir.Types.to_string m.Ir.Jsig.ret))
    s.Framework.Sinks.param_index (atom s.Framework.Sinks.name)

let to_source t =
  String.concat "\n"
    ([ "(rule";
       Printf.sprintf "  (name %s)" (atom t.name);
       Printf.sprintf "  (description %s)" (quote t.description) ]
     @ List.map sink_to_source t.sinks
     @ [ Printf.sprintf "  (insecure-when %s)" (pred_to_source t.insecure_when);
         Printf.sprintf "  (secure-when %s))" (pred_to_source t.secure_when) ])

(** Render a whole rule set in the file syntax ([Parse] reads it back). *)
let list_to_source rules =
  String.concat "\n\n" (List.map to_source rules) ^ "\n"

(* ------------------------------------------------------------------ *)
(* Rule-set content hash (FNV-1a 64 over the canonical rendering, folded
   into a nonnegative OCaml int).  Used to stamp search caches and index
   snapshots so artifacts warmed under one rule set are never silently
   reused under another. *)

let hash_list rules =
  let src = list_to_source rules in
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
       h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c)))
              0x100000001b3L)
    src;
  Int64.to_int !h land max_int
