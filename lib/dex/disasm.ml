(** The "dexdump" of the pipeline: renders IR method bodies into
    dexdump-format plaintext instruction lines through a {!Writer}, which
    lays them out as the dexfile's text store and hit arena.  BackDroid's
    on-the-fly bytecode search is a text search over exactly this output.

    Each instruction line that has a searchable operand (callee signature,
    class descriptor, field signature or quoted string literal) is written
    with that operand interned and classified, so the search engine's
    postings are built from the arena with no text re-parsing, and because
    queries intern through the same [Descriptor] memos, an indexed operand
    and the query that matches it are the same [Sym.t].  The operand is
    exactly the text after the line's last [", "]. *)

let binop_mnemonic = function
  | Ir.Expr.Add -> "add-int" | Sub -> "sub-int" | Mul -> "mul-int"
  | Div -> "div-int" | Rem -> "rem-int" | Band -> "and-int" | Bor -> "or-int"
  | Bxor -> "xor-int" | Shl -> "shl-int" | Shr -> "shr-int"
  | Ushr -> "ushr-int" | Cmp -> "cmp-long"
  | Eq -> "if-eq" | Ne -> "if-ne" | Lt -> "if-lt" | Le -> "if-le"
  | Gt -> "if-gt" | Ge -> "if-ge"

let invoke_mnemonic = function
  | Ir.Expr.Virtual -> "invoke-virtual"
  | Special -> "invoke-direct"
  | Static -> "invoke-static"
  | Interface -> "invoke-interface"

(* Per-method register naming: IR locals map to [vN] in first-use order.
   The table maps a local's id straight to its register name. *)
let reg_names = Array.init 256 (fun n -> "v" ^ string_of_int n)

module Regs = Hashtbl.Make (struct
  type t = string

  let equal = String.equal
  let hash = Hashtbl.hash
end)

type regmap = { tbl : string Regs.t; mutable next : int }

let reg rm (l : Ir.Value.local) =
  match Regs.find rm.tbl l.id with
  | r -> r
  | exception Not_found ->
    let n = rm.next in
    rm.next <- n + 1;
    let r = if n < 256 then reg_names.(n) else "v" ^ string_of_int n in
    Regs.add rm.tbl l.id r;
    r

(* OCaml-escaped and double-quoted, as [Printf]'s [%S] renders it *)
let quote s = String.concat "" [ "\""; String.escaped s; "\"" ]

(* Interned operand renderings: each descriptor renders once per process. *)
let meth_op m = Sym.to_string (Descriptor.meth_desc_sym m)
let class_op c = Sym.to_string (Descriptor.class_desc_sym c)
let field_op f = Sym.to_string (Descriptor.field_desc_sym f)

let value_reg rm = function
  | Ir.Value.Local l -> reg rm l
  | Ir.Value.Const c ->
    (* dexdump shows a register; constants are materialised by a preceding
       const instruction in real bytecode.  For inline constant operands we
       show the literal, which search never targets. *)
    (match c with
     | Ir.Value.Int_c i -> "#int " ^ string_of_int i
     | Null -> "#null"
     | Long_c i -> "#long " ^ Int64.to_string i
     | Float_c f | Double_c f -> Printf.sprintf "#float %f" f
     | Str_c s -> quote s
     | Class_c cl -> class_op cl)

(* -- Line output --------------------------------------------------------- *)

(* One method body's render state: its instruction lines belong to [owner],
   declared by class [cls], and carry the index of the statement being
   rendered. *)
type out = {
  w : Writer.t;
  owner : Ir.Jsig.meth;
  cls : string;
  mutable idx : int;
}

let add o s = Writer.add_string o.w s

let hex_digits = "0123456789abcdef"

(* [%04x] *)
let add_hex4 o n =
  if n land 0xffff = n then begin
    Writer.add_char o.w hex_digits.[n lsr 12];
    Writer.add_char o.w hex_digits.[(n lsr 8) land 15];
    Writer.add_char o.w hex_digits.[(n lsr 4) land 15];
    Writer.add_char o.w hex_digits.[n land 15]
  end
  else add o (Printf.sprintf "%04x" n)

(* Begin an instruction line: its "    %04x: " prefix and mnemonic. *)
let start o mnemonic =
  add o "    ";
  add_hex4 o o.idx;
  add o ": ";
  add o mnemonic

(* End it, with or without a searchable operand. *)
let keyed o cat sym =
  Writer.keyed o.w ~owner:o.owner ~cls:o.cls ~stmt:o.idx ~cat sym

let unkeyed o = Writer.unkeyed o.w ~owner:o.owner ~cls:o.cls ~stmt:o.idx

let op0 o mnemonic =
  start o mnemonic;
  unkeyed o

let op1 o mnemonic a =
  start o mnemonic;
  add o " ";
  add o a;
  unkeyed o

let text2 o mnemonic a b =
  start o mnemonic;
  add o " ";
  add o a;
  add o ", ";
  add o b

let text3 o mnemonic a b c =
  text2 o mnemonic a b;
  add o ", ";
  add o c

let op2 o mnemonic a b =
  text2 o mnemonic a b;
  unkeyed o

let op3 o mnemonic a b c =
  text3 o mnemonic a b c;
  unkeyed o

let keyed2 o cat sym mnemonic a b =
  text2 o mnemonic a b;
  keyed o cat sym

let keyed3 o cat sym mnemonic a b c =
  text3 o mnemonic a b c;
  keyed o cat sym

let add_list o = List.iteri (fun i r -> if i > 0 then add o ", "; add o r)

(* -- Statements ---------------------------------------------------------- *)

(* Register numbers and symbol ids are assigned in a fixed operand order,
   which is part of the snapshot format (files store symbol ids): within an
   instruction, operands are numbered and interned right to left — the
   destination after its sources, an invoke's arguments (left to right)
   before its receiver and then its callee, a phi's operands before its
   target — except that a cast or an invoke with a result numbers the
   destination first.  Each case below binds its operands in that order,
   then writes the line left to right.  Every interning of a statement
   happens before its first line's tokens. *)

let invoke o rm (iv : Ir.Expr.invoke) =
  let args = List.map (value_reg rm) iv.args in
  let regs =
    match iv.base with Some b -> reg rm b :: args | None -> args
  in
  let callee = Descriptor.meth_desc_sym iv.callee in
  start o (invoke_mnemonic iv.kind);
  add o " {";
  add_list o regs;
  add o "}, ";
  add o (Sym.to_string callee);
  keyed o Arena.cat_invoke callee

let stmt o rm (st : Ir.Stmt.t) =
  match st with
  | Assign (l, Imm (Const (Str_c s))) ->
    let lit = Sym.intern (quote s) in
    keyed2 o Arena.cat_const_string lit "const-string" (reg rm l)
      (Sym.to_string lit)
  | Assign (l, Imm (Const (Class_c c))) ->
    let cls = Descriptor.class_desc_sym c in
    keyed2 o Arena.cat_const_class cls "const-class" (reg rm l)
      (Sym.to_string cls)
  | Assign (l, Imm (Const (Int_c i))) ->
    op2 o "const/16" (reg rm l) ("#int " ^ string_of_int i)
  | Assign (l, Imm (Const Null)) -> op2 o "const/4" (reg rm l) "#int 0"
  | Assign (l, Imm (Const (Long_c i))) ->
    op2 o "const-wide" (reg rm l) ("#long " ^ Int64.to_string i)
  | Assign (l, Imm (Const (Float_c f))) ->
    op2 o "const" (reg rm l) (Printf.sprintf "#float %f" f)
  | Assign (l, Imm (Const (Double_c f))) ->
    op2 o "const-wide" (reg rm l) (Printf.sprintf "#double %f" f)
  | Assign (l, Imm (Local x)) ->
    let rx = reg rm x in
    op2 o "move-object" (reg rm l) rx
  | Assign (l, Binop (op, a, b)) ->
    let vb = value_reg rm b in
    let va = value_reg rm a in
    op3 o (binop_mnemonic op) (reg rm l) va vb
  | Assign (l, Cast (t, v)) ->
    let rl = reg rm l in
    let vv = value_reg rm v in
    op2 o "move-object" rl vv;
    op2 o "check-cast" rl (Descriptor.type_desc t)
  | Assign (l, Invoke iv) ->
    let rl = reg rm l in
    invoke o rm iv;
    op1 o "move-result-object" rl
  | Assign (l, New c) ->
    let cls = Descriptor.class_desc_sym c in
    keyed2 o Arena.cat_new_instance cls "new-instance" (reg rm l)
      (Sym.to_string cls)
  | Assign (l, New_array (t, n)) ->
    let vn = value_reg rm n in
    op3 o "new-array" (reg rm l) vn ("[" ^ Descriptor.type_desc t)
  | Assign (l, Array_get (a, i)) ->
    let vi = value_reg rm i in
    let ra = reg rm a in
    op3 o "aget-object" (reg rm l) ra vi
  | Assign (l, Instance_get (b, f)) ->
    let fld = Descriptor.field_desc_sym f in
    let rb = reg rm b in
    keyed3 o Arena.cat_field fld "iget-object" (reg rm l) rb
      (Sym.to_string fld)
  | Assign (l, Static_get f) ->
    let fld = Descriptor.field_desc_sym f in
    keyed2 o Arena.cat_static_field fld "sget-object" (reg rm l)
      (Sym.to_string fld)
  | Assign (l, Phi ls) ->
    let rs = List.map (reg rm) ls in
    start o ".phi ";
    add o (reg rm l);
    add o " = (";
    add_list o rs;
    add o ")";
    unkeyed o
  | Assign (l, Param i) -> op2 o ".param" (reg rm l) ("p" ^ string_of_int i)
  | Assign (l, This) -> op1 o ".this" (reg rm l)
  | Assign (l, Caught_exception) -> op1 o "move-exception" (reg rm l)
  | Assign (l, Length v) ->
    let vv = value_reg rm v in
    op2 o "array-length" (reg rm l) vv
  | Instance_put (b, f, v) ->
    let fld = Descriptor.field_desc_sym f in
    let rb = reg rm b in
    let vv = value_reg rm v in
    keyed3 o Arena.cat_field fld "iput-object" vv rb (Sym.to_string fld)
  | Static_put (f, v) ->
    let fld = Descriptor.field_desc_sym f in
    keyed2 o Arena.cat_static_field fld "sput-object" (value_reg rm v)
      (Sym.to_string fld)
  | Array_put (a, i, v) ->
    let vi = value_reg rm i in
    let ra = reg rm a in
    let vv = value_reg rm v in
    op3 o "aput-object" vv ra vi
  | Invoke iv -> invoke o rm iv
  | Return (Some v) -> op1 o "return-object" (value_reg rm v)
  | Return None -> op0 o "return-void"
  | If (op, a, b, target) ->
    let vb = value_reg rm b in
    let va = value_reg rm a in
    start o (binop_mnemonic op);
    add o " ";
    add o va;
    add o ", ";
    add o vb;
    add o ", :cond_";
    add_hex4 o target;
    unkeyed o
  | Goto target ->
    start o "goto :goto_";
    add_hex4 o target;
    unkeyed o
  | Throw v -> op1 o "throw" (value_reg rm v)
  | Nop -> op0 o "nop"

(* The lines a statement renders: a cast and an invoke with a result take
   two, everything else one. *)
let stmt_lines : Ir.Stmt.t -> int = function
  | Assign (_, (Cast _ | Invoke _)) -> 2
  | _ -> 1

(* -- Classes ------------------------------------------------------------- *)

let size (c : Ir.Jclass.t) =
  List.fold_left
    (fun (lines, slots) (m : Ir.Jmethod.t) ->
       let n =
         match m.body with
         | None -> 0
         | Some body ->
           Array.fold_left (fun n st -> n + stmt_lines st) 0 body
       in
       (lines + 1 + n, slots + n))
    (2 + List.length c.interfaces + List.length c.fields, 0)
    c.methods

let method_lines w cls (m : Ir.Jmethod.t) =
  Writer.add_string w "  method ";
  Writer.add_string w (meth_op m.msig);
  Writer.header w;
  match m.body with
  | None -> ()
  | Some body ->
    let rm = { tbl = Regs.create 16; next = 0 } in
    let o = { w; owner = m.msig; cls; idx = 0 } in
    Array.iteri
      (fun i st ->
         o.idx <- i;
         stmt o rm st)
      body

(* Header descriptors intern in a fixed order too: fields, then interfaces,
   superclass and class, all before the first method. *)
let render w (c : Ir.Jclass.t) =
  let fields = List.map field_op c.fields in
  let interfaces = List.map class_op c.interfaces in
  let super = match c.super with Some s -> class_op s | None -> "-" in
  let name = class_op c.name in
  let head parts =
    List.iter (Writer.add_string w) parts;
    Writer.header w
  in
  head [ "Class descriptor : '"; name; "'" ];
  head [ "  Superclass : '"; super; "'" ];
  List.iter (fun i -> head [ "  Interface : '"; i; "'" ]) interfaces;
  List.iter (fun f -> head [ "  field "; f ]) fields;
  List.iter (method_lines w c.name) c.methods

let app_classes p =
  Ir.Program.fold_classes p (fun c acc -> c :: acc) []
  |> List.filter (fun (c : Ir.Jclass.t) -> not c.is_system)
  |> List.sort (fun (a : Ir.Jclass.t) b -> String.compare a.name b.name)
