(** The "dexdump" of the pipeline: renders IR method bodies into
    dexdump-format plaintext instruction lines.  BackDroid's on-the-fly
    bytecode search is a text search over exactly this output.

    Each instruction line additionally carries a pre-classified, interned
    {!key}: the searchable operand (callee signature, class descriptor,
    field signature or quoted string literal) hash-consed at disassembly
    time.  The search engine's postings are built from these keys with no
    text re-parsing, and because queries intern through the same
    [Descriptor] memos, an indexed operand and the query that matches it are
    the same [Sym.t]. *)

(** The searchable operand of an instruction line, interned at disassembly
    time.  Mirrors the operand-extraction rules of the text search: the
    classified operand is exactly the text after the line's last [", "]. *)
type key =
  | K_invoke of Sym.t        (** [invoke-*]: dexdump callee signature *)
  | K_new_instance of Sym.t  (** [new-instance]: class descriptor *)
  | K_const_class of Sym.t   (** [const-class]: class descriptor *)
  | K_const_string of Sym.t  (** [const-string]: the quoted literal *)
  | K_field of Sym.t         (** [iget]/[iput]: field signature *)
  | K_static_field of Sym.t  (** [sget]/[sput]: field signature *)
  | K_none                   (** header or unsearchable instruction *)

type line = {
  mutable text : string;
      (** snapshot-loaded lines start as {!Textstore.pending} and are
          materialised from the off-heap store on first access (via
          [Dexfile.line_text]); disassembled lines carry real text *)
  owner : Ir.Jsig.meth option;  (** enclosing method for instruction lines *)
  owner_cls : string option;
  stmt_idx : int option;        (** IR statement index for diagnostics *)
  key : key;                    (** interned searchable operand *)
  tokens : Sym.t array option;
      (** distinct class-descriptor tokens of the line, sorted by symbol id;
          [None] = not computed (headers, snapshot-loaded lines) *)
}

let header text owner_cls =
  { text; owner = None; owner_cls; stmt_idx = None; key = K_none;
    tokens = None }

(* Keyed lines render class tokens only inside their operand (the text
   before the final ", " is mnemonics and registers), so the memoized
   operand tokenization covers them; unkeyed instruction lines (check-cast,
   new-array, …) tokenize their own text once, here, at render time.  The
   "    %04x: " prefix holds no token, so the whole line tokenizes like its
   instruction text. *)
let line_tokens ~text = function
  | K_invoke s | K_new_instance s | K_const_class s | K_const_string s
  | K_field s | K_static_field s -> Tokens.of_operand s
  | K_none -> Tokens.of_string text

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

(* Interned operand renderings: the interned string is spliced into the line
   text, so the symbol and the text share memory. *)
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

(* One render pass: each line is written into [buf], then pushed onto [rev]
   (newest first) with the owner fields of the statement being rendered. *)
type out = {
  buf : Buffer.t;
  mutable rev : line list;
  mutable owner : Ir.Jsig.meth option;
  mutable owner_cls : string option;
  mutable idx : int;
  mutable stmt_idx : int option;
}

let out () =
  { buf = Buffer.create 256; rev = []; owner = None;
    owner_cls = None; idx = 0; stmt_idx = None }

let push o l = o.rev <- l :: o.rev

let to_array o = Array.of_list (List.rev o.rev)

let add o s = Buffer.add_string o.buf s

let hex_digits = "0123456789abcdef"

(* [%04x] *)
let add_hex4 o n =
  if n land 0xffff = n then begin
    Buffer.add_char o.buf hex_digits.[n lsr 12];
    Buffer.add_char o.buf hex_digits.[(n lsr 8) land 15];
    Buffer.add_char o.buf hex_digits.[(n lsr 4) land 15];
    Buffer.add_char o.buf hex_digits.[n land 15]
  end
  else add o (Printf.sprintf "%04x" n)

(* Begin instruction line [o.idx]: its "    %04x: " prefix and mnemonic. *)
let start o mnemonic =
  Buffer.clear o.buf;
  add o "    ";
  add_hex4 o o.idx;
  add o ": ";
  add o mnemonic

let finish o key =
  let text = Buffer.contents o.buf in
  push o
    { text; owner = o.owner; owner_cls = o.owner_cls; stmt_idx = o.stmt_idx;
      key; tokens = Some (line_tokens ~text key) }

let op0 o key mnemonic =
  start o mnemonic;
  finish o key

let op1 o key mnemonic a =
  start o mnemonic;
  add o " ";
  add o a;
  finish o key

let op2 o key mnemonic a b =
  start o mnemonic;
  add o " ";
  add o a;
  add o ", ";
  add o b;
  finish o key

let op3 o key mnemonic a b c =
  start o mnemonic;
  add o " ";
  add o a;
  add o ", ";
  add o b;
  add o ", ";
  add o c;
  finish o key

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
  finish o (K_invoke callee)

let stmt o rm (st : Ir.Stmt.t) =
  match st with
  | Assign (l, Imm (Const (Str_c s))) ->
    let lit = Sym.intern (quote s) in
    op2 o (K_const_string lit) "const-string" (reg rm l) (Sym.to_string lit)
  | Assign (l, Imm (Const (Class_c c))) ->
    let cls = Descriptor.class_desc_sym c in
    op2 o (K_const_class cls) "const-class" (reg rm l) (Sym.to_string cls)
  | Assign (l, Imm (Const (Int_c i))) ->
    op2 o K_none "const/16" (reg rm l) ("#int " ^ string_of_int i)
  | Assign (l, Imm (Const Null)) -> op2 o K_none "const/4" (reg rm l) "#int 0"
  | Assign (l, Imm (Const (Long_c i))) ->
    op2 o K_none "const-wide" (reg rm l) ("#long " ^ Int64.to_string i)
  | Assign (l, Imm (Const (Float_c f))) ->
    op2 o K_none "const" (reg rm l) (Printf.sprintf "#float %f" f)
  | Assign (l, Imm (Const (Double_c f))) ->
    op2 o K_none "const-wide" (reg rm l) (Printf.sprintf "#double %f" f)
  | Assign (l, Imm (Local x)) ->
    let rx = reg rm x in
    op2 o K_none "move-object" (reg rm l) rx
  | Assign (l, Binop (op, a, b)) ->
    let vb = value_reg rm b in
    let va = value_reg rm a in
    op3 o K_none (binop_mnemonic op) (reg rm l) va vb
  | Assign (l, Cast (t, v)) ->
    let rl = reg rm l in
    let vv = value_reg rm v in
    op2 o K_none "move-object" rl vv;
    op2 o K_none "check-cast" rl (Descriptor.type_desc t)
  | Assign (l, Invoke iv) ->
    let rl = reg rm l in
    invoke o rm iv;
    op1 o K_none "move-result-object" rl
  | Assign (l, New c) ->
    let cls = Descriptor.class_desc_sym c in
    op2 o (K_new_instance cls) "new-instance" (reg rm l) (Sym.to_string cls)
  | Assign (l, New_array (t, n)) ->
    let vn = value_reg rm n in
    op3 o K_none "new-array" (reg rm l) vn ("[" ^ Descriptor.type_desc t)
  | Assign (l, Array_get (a, i)) ->
    let vi = value_reg rm i in
    let ra = reg rm a in
    op3 o K_none "aget-object" (reg rm l) ra vi
  | Assign (l, Instance_get (b, f)) ->
    let fld = Descriptor.field_desc_sym f in
    let rb = reg rm b in
    op3 o (K_field fld) "iget-object" (reg rm l) rb (Sym.to_string fld)
  | Assign (l, Static_get f) ->
    let fld = Descriptor.field_desc_sym f in
    op2 o (K_static_field fld) "sget-object" (reg rm l) (Sym.to_string fld)
  | Assign (l, Phi ls) ->
    let rs = List.map (reg rm) ls in
    start o ".phi ";
    add o (reg rm l);
    add o " = (";
    add_list o rs;
    add o ")";
    finish o K_none
  | Assign (l, Param i) ->
    op2 o K_none ".param" (reg rm l) ("p" ^ string_of_int i)
  | Assign (l, This) -> op1 o K_none ".this" (reg rm l)
  | Assign (l, Caught_exception) -> op1 o K_none "move-exception" (reg rm l)
  | Assign (l, Length v) ->
    let vv = value_reg rm v in
    op2 o K_none "array-length" (reg rm l) vv
  | Instance_put (b, f, v) ->
    let fld = Descriptor.field_desc_sym f in
    let rb = reg rm b in
    let vv = value_reg rm v in
    op3 o (K_field fld) "iput-object" vv rb (Sym.to_string fld)
  | Static_put (f, v) ->
    let fld = Descriptor.field_desc_sym f in
    op2 o (K_static_field fld) "sput-object" (value_reg rm v)
      (Sym.to_string fld)
  | Array_put (a, i, v) ->
    let vi = value_reg rm i in
    let ra = reg rm a in
    let vv = value_reg rm v in
    op3 o K_none "aput-object" vv ra vi
  | Invoke iv -> invoke o rm iv
  | Return (Some v) -> op1 o K_none "return-object" (value_reg rm v)
  | Return None -> op0 o K_none "return-void"
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
    finish o K_none
  | Goto target ->
    start o "goto :goto_";
    add_hex4 o target;
    finish o K_none
  | Throw v -> op1 o K_none "throw" (value_reg rm v)
  | Nop -> op0 o K_none "nop"

(* -- Classes ------------------------------------------------------------- *)

let method_lines o (m : Ir.Jmethod.t) =
  push o (header ("  method " ^ meth_op m.msig) o.owner_cls);
  match m.body with
  | None -> ()
  | Some body ->
    let rm = { tbl = Regs.create 16; next = 0 } in
    o.owner <- Some m.msig;
    Array.iteri
      (fun i st ->
         o.idx <- i;
         o.stmt_idx <- Some i;
         stmt o rm st)
      body

(* Header descriptors intern in a fixed order too: fields, then interfaces,
   superclass and class, all before the first method. *)
let render_class o (c : Ir.Jclass.t) =
  let fields = List.map field_op c.fields in
  let interfaces = List.map class_op c.interfaces in
  let super = match c.super with Some s -> class_op s | None -> "-" in
  let name = class_op c.name in
  o.owner_cls <- Some c.name;
  let head parts = push o (header (String.concat "" parts) o.owner_cls) in
  head [ "Class descriptor : '"; name; "'" ];
  head [ "  Superclass : '"; super; "'" ];
  List.iter (fun i -> head [ "  Interface : '"; i; "'" ]) interfaces;
  List.iter (fun f -> head [ "  field "; f ]) fields;
  List.iter (method_lines o) c.methods

let class_lines c =
  let o = out () in
  render_class o c;
  to_array o

(** Disassemble all non-system classes — the app dex content. *)
let program_lines p =
  let o = out () in
  Ir.Program.fold_classes p (fun c acc -> c :: acc) []
  |> List.filter (fun (c : Ir.Jclass.t) -> not c.is_system)
  |> List.sort (fun (a : Ir.Jclass.t) b -> String.compare a.name b.name)
  |> List.iter (render_class o);
  to_array o
