(** Method and field signatures, in Soot's textual conventions.

    A full method signature prints as
    [<com.foo.Bar: void start(java.lang.String)>] and a sub-signature (the
    class-independent part used for virtual dispatch) as
    [void start(java.lang.String)]. *)

type meth = {
  cls : string;  (** declaring class, dotted notation *)
  name : string; (** simple method name; [<init>] / [<clinit>] for ctors *)
  params : Types.t list;
  ret : Types.t;
}

type field = {
  fcls : string;
  fname : string;
  fty : Types.t;
}

let meth ~cls ~name ~params ~ret = { cls; name; params; ret }
let field ~cls ~name ~ty = { fcls = cls; fname = name; fty = ty }

let meth_equal a b =
  String.equal a.cls b.cls && String.equal a.name b.name
  && Types.equal a.ret b.ret
  && List.length a.params = List.length b.params
  && List.for_all2 Types.equal a.params b.params

let field_equal a b =
  String.equal a.fcls b.fcls && String.equal a.fname b.fname
  && Types.equal a.fty b.fty

let is_init m = String.equal m.name "<init>"
let is_clinit m = String.equal m.name "<clinit>"

(* The renderers below size their result first and fill one [Bytes] in
   place: one allocation per signature, and no format interpretation.  They
   run per field-taint operation and per sub-signature lookup of the
   analysis, and their output is part of the snapshot and result-cache
   formats, so a changed byte is a format change. *)

(* Length of [Types.to_string t], without building it. *)
let rec type_length = function
  | Types.Array e -> type_length e + 2
  | t -> String.length (Types.to_string t)

let put_string b pos s =
  let n = String.length s in
  Bytes.blit_string s 0 b pos n;
  pos + n

let put_char b pos c =
  Bytes.set b pos c;
  pos + 1

(* Writes [Types.to_string t] at [pos]; returns the position after it. *)
let rec put_type b pos = function
  | Types.Array e -> put_string b (put_type b pos e) "[]"
  | t -> put_string b pos (Types.to_string t)

let sub_signature_length m =
  (* [ret name(p1,p2)]: a space, two parentheses and a comma between each
     two parameters *)
  List.fold_left (fun n t -> n + type_length t) 0 m.params
  + type_length m.ret + String.length m.name + 3
  + max 0 (List.length m.params - 1)

(* Writes [ret name(p1,p2)] at [pos]. *)
let put_sub_signature b pos m =
  let pos = put_char b (put_type b pos m.ret) ' ' in
  let pos = put_char b (put_string b pos m.name) '(' in
  let pos =
    match m.params with
    | [] -> pos
    | t :: rest ->
      List.fold_left
        (fun pos t -> put_type b (put_char b pos ',') t)
        (put_type b pos t) rest
  in
  put_char b pos ')'

(** Class-independent part of a method signature: [ret name(p1,p2)].  Two
    methods with equal sub-signatures are in an overriding relation when their
    classes are. *)
let sub_signature m =
  let b = Bytes.create (sub_signature_length m) in
  ignore (put_sub_signature b 0 m);
  Bytes.unsafe_to_string b

(** The method name in a sub-signature [ret name(p1,p2)] as
    {!sub_signature} renders it; [None] for any other shape.  Types hold no
    spaces, so the name runs from the first space to the next ['(']. *)
let subsig_name s =
  match String.index_opt s ' ' with
  | None -> None
  | Some sp ->
    (match String.index_from_opt s (sp + 1) '(' with
     | None -> None
     | Some lp -> Some (String.sub s (sp + 1) (lp - sp - 1)))

(** Full Soot-format signature: [<cls: ret name(p1,p2)>]. *)
let meth_to_string m =
  let b = Bytes.create (String.length m.cls + sub_signature_length m + 4) in
  let pos = put_string b (put_char b 0 '<') m.cls in
  let pos = put_sub_signature b (put_string b pos ": ") m in
  ignore (put_char b pos '>');
  Bytes.unsafe_to_string b

let field_to_string f =
  let b =
    Bytes.create
      (String.length f.fcls + type_length f.fty + String.length f.fname + 5)
  in
  let pos = put_string b (put_char b 0 '<') f.fcls in
  let pos = put_type b (put_string b pos ": ") f.fty in
  let pos = put_string b (put_char b pos ' ') f.fname in
  ignore (put_char b pos '>');
  Bytes.unsafe_to_string b

(** Parse a Soot-format method signature produced by {!meth_to_string}.
    Raises [Invalid_argument], and no other exception, on malformed
    input. *)
let meth_of_string s =
  let fail () = invalid_arg (Printf.sprintf "Jsig.meth_of_string: %S" s) in
  let s = String.trim s in
  let n = String.length s in
  if n < 2 || s.[0] <> '<' || s.[n - 1] <> '>' then fail ();
  let inner = String.sub s 1 (n - 2) in
  match String.index_opt inner ':' with
  | None -> fail ()
  | Some colon ->
    let cls = String.sub inner 0 colon in
    let rest = String.trim (String.sub inner (colon + 1) (String.length inner - colon - 1)) in
    (match String.index_opt rest ' ' with
     | None -> fail ()
     | Some sp ->
       let ret = Types.of_string (String.sub rest 0 sp) in
       let rest = String.sub rest (sp + 1) (String.length rest - sp - 1) in
       (match String.index_opt rest '(' with
        | None -> fail ()
        | Some lp ->
          (match String.rindex_opt rest ')' with
           | Some rp when rp > lp ->
             let name = String.sub rest 0 lp in
             let args = String.sub rest (lp + 1) (rp - lp - 1) in
             let params =
               if String.trim args = "" then []
               else
                 String.split_on_char ',' args |> List.map Types.of_string
             in
             { cls; name; params; ret }
           | Some _ | None -> fail ())))

(* The byte walks of [meth_parses], top-level so that no closure is
   allocated: [String.trim]'s whitespace, its two ends, and the first [c]
   in [\[i, hi)] (or -1). *)
let is_space c = c = ' ' || c = '\012' || c = '\n' || c = '\r' || c = '\t'

let rec skip_front (b : Bvec.t) lo hi =
  if lo < hi && is_space (Bvec.unsafe_get b lo) then skip_front b (lo + 1) hi
  else lo

let rec skip_back (b : Bvec.t) lo hi =
  if hi > lo && is_space (Bvec.unsafe_get b (hi - 1)) then
    skip_back b lo (hi - 1)
  else hi

let rec index_in (b : Bvec.t) i hi c =
  if i >= hi then -1
  else if Bvec.unsafe_get b i = c then i
  else index_in b (i + 1) hi c

(* Whether some byte in [\[lo + 1, i\]] is [c]. *)
let rec occurs_after (b : Bvec.t) lo i c =
  i > lo && (Bvec.unsafe_get b i = c || occurs_after b lo (i - 1) c)

(** Whether {!meth_of_string} parses the [len] bytes of [b] at [pos]: the
    same walk (trim, ['<'] and ['>'], the first [':'], trim, the first
    space, the first ['('], a last [')'] after it) over the bytes where
    they lie, allocating nothing.  A snapshot load checks every stored
    signature with it and parses each on first read. *)
let meth_parses (b : Bvec.t) ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bvec.length b then
    invalid_arg "Jsig.meth_parses";
  let lo = skip_front b pos (pos + len) in
  let hi = skip_back b lo (pos + len) in
  hi - lo >= 2
  && Bvec.unsafe_get b lo = '<'
  && Bvec.unsafe_get b (hi - 1) = '>'
  &&
  match index_in b (lo + 1) (hi - 1) ':' with
  | -1 -> false
  | colon ->
    let rlo = skip_front b (colon + 1) (hi - 1) in
    let rhi = skip_back b rlo (hi - 1) in
    (match index_in b rlo rhi ' ' with
     | -1 -> false
     | sp ->
       (match index_in b (sp + 1) rhi '(' with
        | -1 -> false
        | lp -> occurs_after b lp (rhi - 1) ')'))

(* Allocation-free hashes: the strings are hashed in place ([Hashtbl.hash]
   of a string returns an immediate) and the parameter types are folded
   structurally, where a hash of a tuple would allocate the tuple and a
   [Types.to_key] string per parameter on every probe. *)
let combine h x = (h * 65599) + x

let rec type_hash h = function
  | Types.Object c -> combine (combine h 10) (Hashtbl.hash c)
  | Types.Array e -> type_hash (combine h 11) e
  | Types.Void -> combine h 1
  | Types.Boolean -> combine h 2
  | Types.Byte -> combine h 3
  | Types.Char -> combine h 4
  | Types.Short -> combine h 5
  | Types.Int -> combine h 6
  | Types.Long -> combine h 7
  | Types.Float -> combine h 8
  | Types.Double -> combine h 9

module Meth_key = struct
  type t = meth
  let equal = meth_equal
  let hash m =
    List.fold_left type_hash
      (combine (Hashtbl.hash m.cls) (Hashtbl.hash m.name))
      m.params
    land max_int
end

module Meth_tbl = Hashtbl.Make (Meth_key)

(** Interned full signature: [Sym.id (meth_sym m)] is an O(1) dedup key for
    a method, and [Sym.to_string] returns {!meth_to_string}'s output without
    re-rendering it.  Memoized process-wide, domain-safe. *)
let meth_sym =
  Sym.memo ~size:1024 ~hash:Meth_key.hash ~equal:Meth_key.equal meth_to_string

(** Interned sub-signature: the overriding-relation comparisons of the
    forward object taint reduce to integer equality on this symbol. *)
let subsig_sym =
  Sym.memo ~size:1024 ~hash:Meth_key.hash ~equal:Meth_key.equal sub_signature

module Field_key = struct
  type t = field
  let equal = field_equal
  let hash f = combine (Hashtbl.hash f.fcls) (Hashtbl.hash f.fname) land max_int
end

module Field_tbl = Hashtbl.Make (Field_key)
