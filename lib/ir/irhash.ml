(* Structural FNV-1a-64 content hash over the IR, used by the delta
   snapshot path to decide which classes of a new build changed without
   rendering them.  The walk feeds only constructor tags, strings and
   small ints into the fold — no Sym ids, no physical identity — so the
   hash is stable across processes and across unrelated interning
   activity.  Disassembly is deterministic, so IR-hash equality implies
   rendered-line equality; the converse inequality only costs a spurious
   re-render, never a wrong reuse. *)

let offset_basis = 0xcbf29ce484222325L
let prime = 0x100000001b3L

(* The one FNV-1a step.  [int] and [string] are the hot folds (every class
   name, every name and constant of a statement): [for] loops over a local
   [Int64] ref that call this inlined step, so ocamlopt keeps the ref
   unboxed and no byte allocates.  Their results, like every other step's,
   are returned boxed. *)
let[@inline] byte h b =
  Int64.mul (Int64.logxor h (Int64.of_int (b land 0xff))) prime

let int h i =
  (* eight explicit bytes so [int h 1; int h 2] never collides with
     [int h 0x0102] the way a raw char-fold would *)
  let h = ref h in
  for shift = 0 to 7 do
    h := byte !h ((i lsr (shift * 8)) land 0xff)
  done;
  !h

let string h s =
  let h = ref (int h (String.length s)) in
  for i = 0 to String.length s - 1 do
    h := byte !h (Char.code (String.unsafe_get s i))
  done;
  !h

let tag h t = byte h t
let bool h b = byte h (if b then 1 else 0)
let option f h = function None -> tag h 0 | Some x -> f (tag h 1) x
let list f h xs = List.fold_left f (int h (List.length xs)) xs

let rec ty h (t : Types.t) =
  match t with
  | Void -> tag h 0
  | Boolean -> tag h 1
  | Byte -> tag h 2
  | Char -> tag h 3
  | Short -> tag h 4
  | Int -> tag h 5
  | Long -> tag h 6
  | Float -> tag h 7
  | Double -> tag h 8
  | Object s -> string (tag h 9) s
  | Array e -> ty (tag h 10) e

let local h (l : Value.local) = ty (string (tag h 1) l.id) l.ty

let const h (c : Value.const) =
  match c with
  | Value.Null -> tag h 0
  | Int_c i -> int (tag h 1) i
  | Long_c i -> int (int (tag h 2) (Int64.to_int i)) (Int64.to_int (Int64.shift_right_logical i 32))
  | Float_c f -> int (tag h 3) (Int64.to_int (Int64.bits_of_float f))
  | Double_c f -> int (tag h 4) (Int64.to_int (Int64.bits_of_float f))
  | Str_c s -> string (tag h 5) s
  | Class_c s -> string (tag h 6) s

let value h (v : Value.t) =
  match v with
  | Local l -> local (tag h 1) l
  | Const c -> const (tag h 2) c

let field h (f : Jsig.field) = ty (string (string (tag h 3) f.fcls) f.fname) f.fty

let meth_sig h (m : Jsig.meth) =
  ty (list ty (string (string (tag h 4) m.cls) m.name) m.params) m.ret

let binop_code (b : Expr.binop) =
  match b with
  | Add -> 0 | Sub -> 1 | Mul -> 2 | Div -> 3 | Rem -> 4 | Band -> 5
  | Bor -> 6 | Bxor -> 7 | Shl -> 8 | Shr -> 9 | Ushr -> 10 | Cmp -> 11
  | Eq -> 12 | Ne -> 13 | Lt -> 14 | Le -> 15 | Gt -> 16 | Ge -> 17

let invoke h (iv : Expr.invoke) =
  let kind =
    match iv.kind with Virtual -> 0 | Special -> 1 | Static -> 2 | Interface -> 3
  in
  list value (option local (meth_sig (tag h kind) iv.callee) iv.base) iv.args

let expr h (e : Expr.t) =
  match e with
  | Imm v -> value (tag h 0) v
  | Binop (b, x, y) -> value (value (tag (tag h 1) (binop_code b)) x) y
  | Cast (t, v) -> value (ty (tag h 2) t) v
  | Invoke iv -> invoke (tag h 3) iv
  | New cls -> string (tag h 4) cls
  | New_array (t, n) -> value (ty (tag h 5) t) n
  | Array_get (a, i) -> value (local (tag h 6) a) i
  | Instance_get (b, f) -> field (local (tag h 7) b) f
  | Static_get f -> field (tag h 8) f
  | Phi ls -> list local (tag h 9) ls
  | Param i -> int (tag h 10) i
  | This -> tag h 11
  | Caught_exception -> tag h 12
  | Length v -> value (tag h 13) v

let stmt h (s : Stmt.t) =
  match s with
  | Assign (l, e) -> expr (local (tag h 0) l) e
  | Instance_put (b, f, v) -> value (field (local (tag h 1) b) f) v
  | Static_put (f, v) -> value (field (tag h 2) f) v
  | Array_put (a, i, v) -> value (value (local (tag h 3) a) i) v
  | Invoke iv -> invoke (tag h 4) iv
  | Return v -> option value (tag h 5) v
  | If (b, x, y, target) -> int (value (value (tag (tag h 6) (binop_code b)) x) y) target
  | Goto target -> int (tag h 7) target
  | Throw v -> value (tag h 8) v
  | Nop -> tag h 9

let access h (a : Jmethod.access) =
  bool
    (bool (bool (bool (bool (bool (bool h a.is_static) a.is_private) a.is_public)
             a.is_abstract)
        a.is_final)
       a.is_native)
    a.is_synthetic

let jmethod h (m : Jmethod.t) =
  let h = access (meth_sig h m.msig) m.access in
  match m.body with
  | None -> tag h 0
  | Some body ->
    Array.fold_left stmt (int (tag h 1) (Array.length body)) body

let jclass_uncached (c : Jclass.t) =
  let h = string offset_basis c.name in
  let h = option string h c.super in
  let h = list string h c.interfaces in
  let h = bool (bool (bool h c.is_interface) c.is_abstract) c.is_system in
  let h = list field h c.fields in
  list jmethod h c.methods

(* Physical-identity memo: the IR is immutable and a version update rebuilds
   only the classes it touches, so the unchanged classes of a v2 program are
   the very objects already hashed while building v1 (or its classmap).  The
   ephemeron key keeps the memo from pinning dead programs; the name-based
   bucket hash makes two versions of one class collide into the same bucket,
   where physical equality tells them apart. *)
module Memo = Parallel.Once.Make (Ephemeron.K1.Make (struct
  type t = Jclass.t

  let equal = ( == )
  let hash (c : Jclass.t) = Hashtbl.hash c.Jclass.name
end))

let memo : int64 Memo.t = Memo.create 1024

let jclass (c : Jclass.t) = Memo.find_or_add memo c jclass_uncached
