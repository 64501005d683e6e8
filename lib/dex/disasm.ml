(** The "dexdump" of the pipeline: one statement walk over IR classes,
    writing dexdump-format lines through a {!Writer}.  The writer's kind
    decides what the walk does: an index pass interns and classifies each
    searchable operand (callee signature, class descriptor, field
    signature or quoted string literal) and writes no text; a text pass
    names registers and writes the plaintext, taking each operand from
    the arena.  A keyed line's text ends in [", "] and its operand. *)

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

(* -- Registers ------------------------------------------------------------ *)

(* Per-method register naming, in a pass that writes text: IR locals map
   to [vN] in first-use order.  [locals] holds the method's locals in that
   order, so a local's number is its position.  A lookup compares
   physically first (a method's statements share their locals' values),
   then by id, with no hashing and no closure. *)
let reg_names = Array.init 256 (fun n -> "v" ^ string_of_int n)

type regs = { mutable locals : Ir.Value.local array; mutable n : int }

let rec find_phys locals (l : Ir.Value.local) i n =
  if i = n then -1 else if locals.(i) == l then i
  else find_phys locals l (i + 1) n

let rec find_id locals id i n =
  if i = n then -1
  else if String.equal locals.(i).Ir.Value.id id then i
  else find_id locals id (i + 1) n

let number r (l : Ir.Value.local) =
  match find_phys r.locals l 0 r.n with
  | -1 ->
    (match find_id r.locals l.id 0 r.n with
     | -1 ->
       if r.n = Array.length r.locals then begin
         let a = Array.make (max 16 (2 * r.n)) l in
         Array.blit r.locals 0 a 0 r.n;
         r.locals <- a
       end;
       r.locals.(r.n) <- l;
       r.n <- r.n + 1;
       r.n - 1
     | i -> i)
  | i -> i

(* OCaml-escaped and double-quoted, as [Printf]'s [%S] renders it *)
let quote s = String.concat "" [ "\""; String.escaped s; "\"" ]

(* Interned operand renderings: each descriptor renders once per process.
   A text pass finds every one already interned by the index pass. *)
let meth_op m = Sym.to_string (Descriptor.meth_desc_sym m)
let class_op c = Sym.to_string (Descriptor.class_desc_sym c)
let field_op f = Sym.to_string (Descriptor.field_desc_sym f)

(* -- Line output --------------------------------------------------------- *)

(* One class's walk: its instruction lines belong to [owner], declared by
   class [cls], and carry the index of the statement being walked.  An
   index pass interns operands; a text pass ([text]) names registers and
   renders literals. *)
type out = {
  w : Writer.t;
  text : bool;
  regs : regs;
  cls : string;
  mutable owner : Ir.Jsig.meth;
  mutable idx : int;
  mutable slots : int;  (* the statement's unwritten lines' slot bits *)
}

let reg o l =
  if not o.text then ""
  else
    let n = number o.regs l in
    if n < 256 then reg_names.(n) else "v" ^ string_of_int n

let value o = function
  | Ir.Value.Local l -> reg o l
  | Ir.Value.Const c ->
    (* dexdump shows a register; constants are materialised by a preceding
       const instruction in real bytecode.  For inline constant operands we
       show the literal, which search never targets.  An index pass
       interns a class constant as every walk does, and renders only the
       literals that may carry a class token. *)
    (match c with
     | Class_c cl -> class_op cl
     | Str_c s -> if o.text || String.contains s ';' then quote s else ""
     | _ when not o.text -> ""
     | Int_c i -> "#int " ^ string_of_int i
     | Null -> "#null"
     | Long_c i -> "#long " ^ Int64.to_string i
     | Float_c f | Double_c f -> Printf.sprintf "#float %f" f)

(* An invoke's arguments, left to right; an index pass keeps only those
   it renders, the ones that may carry a class token. *)
let rec values o = function
  | [] -> []
  | v :: vs ->
    let r = value o v in
    let rs = values o vs in
    if o.text || String.length r > 0 then r :: rs else rs

(* A keyed line's operand: interned by an index pass, in the order below;
   read back from the arena by a text pass, which interns nothing. *)
let lit_key o s =
  if o.text then Writer.slot_sym o.w else Sym.intern (quote s)

let class_key o c =
  if o.text then Writer.slot_sym o.w else Descriptor.class_desc_sym c

let meth_key o m =
  if o.text then Writer.slot_sym o.w else Descriptor.meth_desc_sym m

let field_key o f =
  if o.text then Writer.slot_sym o.w else Descriptor.field_desc_sym f

let add o s = Writer.add_string o.w s
let operand o s = Writer.add_operand o.w s

let hex_digits = "0123456789abcdef"

(* [%04x] *)
let add_hex4 o n =
  if not o.text then ()
  else if n land 0xffff = n then begin
    Writer.add_char o.w hex_digits.[n lsr 12];
    Writer.add_char o.w hex_digits.[(n lsr 8) land 15];
    Writer.add_char o.w hex_digits.[(n lsr 4) land 15];
    Writer.add_char o.w hex_digits.[n land 15]
  end
  else add o (Printf.sprintf "%04x" n)

(* Begin an instruction line: its "    %04x: " prefix and mnemonic. *)
let start o mnemonic =
  if o.text then begin
    add o "    ";
    add_hex4 o o.idx;
    add o ": ";
    add o mnemonic
  end

(* End it, with or without a searchable operand, taking the line's bit
   of the statement's slot rule ([slot_lines]).  A keyed line's text ends
   in its operand. *)
let keyed o cat sym =
  if o.text then add o (Sym.to_string sym);
  o.slots <- o.slots lsr 1;
  Writer.keyed o.w ~owner:o.owner ~cls:o.cls ~stmt:o.idx ~cat sym

let unkeyed o =
  let slot = o.slots land 1 = 1 in
  o.slots <- o.slots lsr 1;
  Writer.unkeyed o.w ~owner:o.owner ~cls:o.cls ~stmt:o.idx ~slot

let op0 o mnemonic =
  start o mnemonic;
  unkeyed o

let text1 o mnemonic a =
  start o mnemonic;
  add o " ";
  operand o a

let op1 o mnemonic a =
  text1 o mnemonic a;
  unkeyed o

let op2 o mnemonic a b =
  text1 o mnemonic a;
  add o ", ";
  operand o b;
  unkeyed o

let op3 o mnemonic a b c =
  text1 o mnemonic a;
  add o ", ";
  operand o b;
  add o ", ";
  operand o c;
  unkeyed o

let keyed2 o cat sym mnemonic a =
  text1 o mnemonic a;
  add o ", ";
  keyed o cat sym

let keyed3 o cat sym mnemonic a b =
  text1 o mnemonic a;
  add o ", ";
  operand o b;
  add o ", ";
  keyed o cat sym

let add_list o = List.iteri (fun i r -> if i > 0 then add o ", "; operand o r)

(* -- Statements ---------------------------------------------------------- *)

(* Register numbers are assigned in a fixed operand order, which the
   text depends on: within an instruction, operands are numbered right to
   left — the destination after its sources, an invoke's arguments (left
   to right) before its receiver, a phi's operands before its target —
   except that a cast or an invoke with a result numbers the destination
   first.  Each case below binds its operands in that order, then writes
   the line left to right.  An index pass names no register; it numbers
   symbols as the writer meets them, line by line ([Writer.keyed]), in
   whatever order the walk interns them. *)

let invoke o (iv : Ir.Expr.invoke) =
  let args = values o iv.args in
  let regs =
    match iv.base with Some b -> reg o b :: args | None -> args
  in
  let callee = meth_key o iv.callee in
  start o (invoke_mnemonic iv.kind);
  add o " {";
  add_list o regs;
  add o "}, ";
  keyed o Arena.cat_invoke callee

let stmt o (st : Ir.Stmt.t) =
  match st with
  | Assign (l, Imm (Const (Str_c s))) ->
    let lit = lit_key o s in
    keyed2 o Arena.cat_const_string lit "const-string" (reg o l)
  | Assign (l, Imm (Const (Class_c c))) ->
    let cls = class_key o c in
    keyed2 o Arena.cat_const_class cls "const-class" (reg o l)
  | Assign (l, Imm (Const (Int_c _) as v)) ->
    op2 o "const/16" (reg o l) (value o v)
  | Assign (l, Imm (Const Null)) -> op2 o "const/4" (reg o l) "#int 0"
  | Assign (l, Imm (Const (Long_c _) as v)) ->
    op2 o "const-wide" (reg o l) (value o v)
  | Assign (l, Imm (Const (Float_c _) as v)) ->
    op2 o "const" (reg o l) (value o v)
  | Assign (l, Imm (Const (Double_c f))) ->
    op2 o "const-wide" (reg o l)
      (if o.text then Printf.sprintf "#double %f" f else "")
  | Assign (l, Imm (Local x)) ->
    let rx = reg o x in
    op2 o "move-object" (reg o l) rx
  | Assign (l, Binop (op, a, b)) ->
    let vb = value o b in
    let va = value o a in
    op3 o (binop_mnemonic op) (reg o l) va vb
  | Assign (l, Cast (t, v)) ->
    let rl = reg o l in
    let vv = value o v in
    op2 o "move-object" rl vv;
    op2 o "check-cast" rl (Descriptor.type_desc t)
  | Assign (l, Invoke iv) ->
    let rl = reg o l in
    invoke o iv;
    op1 o "move-result-object" rl
  | Assign (l, New c) ->
    let cls = class_key o c in
    keyed2 o Arena.cat_new_instance cls "new-instance" (reg o l)
  | Assign (l, New_array (t, n)) ->
    let vn = value o n in
    op3 o "new-array" (reg o l) vn ("[" ^ Descriptor.type_desc t)
  | Assign (l, Array_get (a, i)) ->
    let vi = value o i in
    let ra = reg o a in
    op3 o "aget-object" (reg o l) ra vi
  | Assign (l, Instance_get (b, f)) ->
    let fld = field_key o f in
    let rb = reg o b in
    keyed3 o Arena.cat_field fld "iget-object" (reg o l) rb
  | Assign (l, Static_get f) ->
    let fld = field_key o f in
    keyed2 o Arena.cat_static_field fld "sget-object" (reg o l)
  | Assign (l, Phi ls) ->
    if o.text then begin
      let rs = List.map (reg o) ls in
      start o ".phi ";
      add o (reg o l);
      add o " = (";
      add_list o rs;
      add o ")"
    end;
    unkeyed o
  | Assign (l, Param i) ->
    op2 o ".param" (reg o l) (if o.text then "p" ^ string_of_int i else "")
  | Assign (l, This) -> op1 o ".this" (reg o l)
  | Assign (l, Caught_exception) -> op1 o "move-exception" (reg o l)
  | Assign (l, Length v) ->
    let vv = value o v in
    op2 o "array-length" (reg o l) vv
  | Instance_put (b, f, v) ->
    let fld = field_key o f in
    let rb = reg o b in
    let vv = value o v in
    keyed3 o Arena.cat_field fld "iput-object" vv rb
  | Static_put (f, v) ->
    let fld = field_key o f in
    keyed2 o Arena.cat_static_field fld "sput-object" (value o v)
  | Array_put (a, i, v) ->
    let vi = value o i in
    let ra = reg o a in
    let vv = value o v in
    op3 o "aput-object" vv ra vi
  | Invoke iv -> invoke o iv
  | Return (Some v) -> op1 o "return-object" (value o v)
  | Return None -> op0 o "return-void"
  | If (op, a, b, target) ->
    let vb = value o b in
    let va = value o a in
    text1 o (binop_mnemonic op) va;
    add o ", ";
    operand o vb;
    add o ", :cond_";
    add_hex4 o target;
    unkeyed o
  | Goto target ->
    start o "goto :goto_";
    add_hex4 o target;
    unkeyed o
  | Throw v -> op1 o "throw" (value o v)
  | Nop -> op0 o "nop"

(* The lines a statement renders: a cast and an invoke with a result take
   two, everything else one. *)
let stmt_lines : Ir.Stmt.t -> int = function
  | Assign (_, (Cast _ | Invoke _)) -> 2
  | _ -> 1

(* Whether a value's operand holds a [';']: a class constant's descriptor
   always does, a string literal when its text does; a register and the
   other literals never do. *)
let value_has_semicolon = function
  | Ir.Value.Const (Class_c _) -> true
  | Const (Str_c s) -> String.contains s ';'
  | _ -> false

(* Whether a type's descriptor holds a [';']: one naming a class does. *)
let rec type_has_semicolon = function
  | Ir.Types.Object _ -> true
  | Array t -> type_has_semicolon t
  | Void | Boolean | Byte | Char | Short | Int | Long | Float | Double -> false

let bit b = if b then 1 else 0

(* The slot rule: which of a statement's lines take an arena slot, one
   bit per line, the first line lowest.  A line takes one when a search
   can return it: a keyed line, or a line one of whose operands holds a
   [';'] and so may carry a class token (the writer's trigger,
   [Writer.add_operand]).  Every other instruction line, the
   [move-result-object] after an invoke say, has no slot.  The walk reads
   each line's bit ([keyed], [unkeyed]), and [size] counts them, so the
   columns are sized by the rule that fills them. *)
let slot_lines : Ir.Stmt.t -> int = function
  | Assign (_, Imm (Const (Str_c _ | Class_c _)))
  | Assign (_, (Invoke _ | New _ | Instance_get _ | Static_get _))
  | Instance_put _ | Static_put _ | Invoke _ -> 1
  | Assign (_, Cast (t, v)) ->
    bit (value_has_semicolon v) lor (bit (type_has_semicolon t) lsl 1)
  | Assign (_, Binop (_, a, b)) | If (_, a, b, _) ->
    bit (value_has_semicolon a || value_has_semicolon b)
  | Assign (_, New_array (t, n)) ->
    bit (value_has_semicolon n || type_has_semicolon t)
  | Assign (_, (Array_get (_, v) | Length v)) | Return (Some v) | Throw v ->
    bit (value_has_semicolon v)
  | Array_put (_, i, v) -> bit (value_has_semicolon i || value_has_semicolon v)
  | Assign (_, (Imm _ | Phi _ | Param _ | This | Caught_exception))
  | Return None | Goto _ | Nop -> 0

(* -- Classes ------------------------------------------------------------- *)

let size (c : Ir.Jclass.t) =
  let lines = ref (2 + List.length c.interfaces + List.length c.fields)
  and slots = ref 0 in
  List.iter
    (fun (m : Ir.Jmethod.t) ->
       incr lines;
       Option.iter
         (Array.iter (fun st ->
              let b = slot_lines st in
              lines := !lines + stmt_lines st;
              slots := !slots + (b land 1) + (b lsr 1)))
         m.body)
    c.methods;
  (!lines, !slots)

let line_owners (c : Ir.Jclass.t) =
  let owners = Array.make (fst (size c)) None in
  let pos = ref (2 + List.length c.interfaces + List.length c.fields) in
  List.iter
    (fun (m : Ir.Jmethod.t) ->
       incr pos;
       Option.iter
         (Array.iteri (fun i st ->
              let here = Some (m.msig, i) in
              for _ = 1 to stmt_lines st do
                owners.(!pos) <- here;
                incr pos
              done))
         m.body)
    c.methods;
  owners

let method_lines o (m : Ir.Jmethod.t) =
  add o "  method ";
  add o (meth_op m.msig);
  Writer.header o.w;
  match m.body with
  | None -> ()
  | Some body ->
    o.owner <- m.msig;
    o.regs.n <- 0;
    for i = 0 to Array.length body - 1 do
      o.idx <- i;
      o.slots <- slot_lines body.(i);
      stmt o body.(i)
    done

let render w (c : Ir.Jclass.t) =
  let head parts =
    List.iter (Writer.add_string w) parts;
    Writer.header w
  in
  let super = match c.super with Some s -> class_op s | None -> "-" in
  head [ "Class descriptor : '"; class_op c.name; "'" ];
  head [ "  Superclass : '"; super; "'" ];
  List.iter (fun i -> head [ "  Interface : '"; class_op i; "'" ]) c.interfaces;
  List.iter (fun f -> head [ "  field "; field_op f ]) c.fields;
  match c.methods with
  | [] -> ()
  | m :: _ ->
    let o =
      { w; text = Writer.writes_text w;
        regs = { locals = [||]; n = 0 }; cls = c.name; owner = m.msig;
        idx = 0; slots = 0 }
    in
    List.iter (method_lines o) c.methods

let app_classes p =
  Ir.Program.fold_classes p (fun c acc -> c :: acc) []
  |> List.filter (fun (c : Ir.Jclass.t) -> not c.is_system)
  |> List.sort (fun (a : Ir.Jclass.t) b -> String.compare a.name b.name)
