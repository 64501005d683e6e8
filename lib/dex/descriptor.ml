(** Dex (dexdump) descriptor rendering and parsing — the "bytecode format"
    side of the paper's step-1/step-3 signature translation.

    Types render as [I], [Ljava/lang/String;], [[I]; methods as
    [Lcom/foo/Bar;.start:(Ljava/lang/String;)V]; fields as
    [Lcom/foo/Bar;.port:I]. *)

(* The renderers below size their result first and fill one [Bytes] in
   place, as [Ir.Jsig]'s do: one allocation per descriptor and no format
   interpretation.  Every descriptor disassembly or query construction
   meets for the first time renders through them. *)

let put_string b pos s =
  Bytes.blit_string s 0 b pos (String.length s);
  pos + String.length s

let put_char b pos c =
  Bytes.set b pos c;
  pos + 1

(* [L], [name] with its dots as slashes, [;] *)
let put_class b pos name =
  let pos = put_char b pos 'L' in
  for i = 0 to String.length name - 1 do
    let c = String.unsafe_get name i in
    Bytes.set b (pos + i) (if c = '.' then '/' else c)
  done;
  put_char b (pos + String.length name) ';'

let rec type_length = function
  | Ir.Types.Object c -> String.length c + 2
  | Array e -> type_length e + 1
  | Void | Boolean | Byte | Char | Short | Int | Long | Float | Double -> 1

let rec put_type b pos = function
  | Ir.Types.Void -> put_char b pos 'V'
  | Boolean -> put_char b pos 'Z'
  | Byte -> put_char b pos 'B'
  | Char -> put_char b pos 'C'
  | Short -> put_char b pos 'S'
  | Int -> put_char b pos 'I'
  | Long -> put_char b pos 'J'
  | Float -> put_char b pos 'F'
  | Double -> put_char b pos 'D'
  | Object c -> put_class b pos c
  | Array e -> put_type b (put_char b pos '[') e

(* [(params)ret] *)
let proto_length params ret =
  List.fold_left (fun n t -> n + type_length t) (type_length ret + 2) params

let rec put_params b pos = function
  | [] -> pos
  | t :: ts -> put_params b (put_type b pos t) ts

let put_proto b pos params ret =
  put_type b (put_char b (put_params b (put_char b pos '(') params) ')') ret

let class_desc name =
  let b = Bytes.create (String.length name + 2) in
  ignore (put_class b 0 name);
  Bytes.unsafe_to_string b

let class_of_desc d =
  let n = String.length d in
  if n >= 2 && d.[0] = 'L' && d.[n - 1] = ';' then
    String.map (fun c -> if c = '/' then '.' else c) (String.sub d 1 (n - 2))
  else invalid_arg (Printf.sprintf "Descriptor.class_of_desc: %S" d)

let type_desc t =
  let b = Bytes.create (type_length t) in
  ignore (put_type b 0 t);
  Bytes.unsafe_to_string b

(** Parse one type descriptor starting at [pos]; returns the type and the
    position just past it. *)
let rec parse_type d pos =
  match d.[pos] with
  | 'V' -> Ir.Types.Void, pos + 1
  | 'Z' -> Boolean, pos + 1
  | 'B' -> Byte, pos + 1
  | 'C' -> Char, pos + 1
  | 'S' -> Short, pos + 1
  | 'I' -> Int, pos + 1
  | 'J' -> Long, pos + 1
  | 'F' -> Float, pos + 1
  | 'D' -> Double, pos + 1
  | 'L' ->
    let semi = String.index_from d pos ';' in
    Object (class_of_desc (String.sub d pos (semi - pos + 1))), semi + 1
  | '[' ->
    let e, p = parse_type d (pos + 1) in
    Array e, p
  | c -> invalid_arg (Printf.sprintf "Descriptor.parse_type: %c in %S" c d)

let type_of_desc d =
  let t, p = parse_type d 0 in
  if p <> String.length d then
    invalid_arg (Printf.sprintf "Descriptor.type_of_desc: trailing data in %S" d);
  t

let proto_desc ~params ~ret =
  let b = Bytes.create (proto_length params ret) in
  ignore (put_proto b 0 params ret);
  Bytes.unsafe_to_string b

(* [Lcls;.name:] *)
let member_length cls name = String.length cls + String.length name + 4

let put_member b pos cls name =
  put_char b (put_string b (put_char b (put_class b pos cls) '.') name) ':'

(** Full dexdump method signature, the exact string the bytecode search
    constructs in step 1 of Fig. 3. *)
let meth_desc (m : Ir.Jsig.meth) =
  let b =
    Bytes.create (member_length m.cls m.name + proto_length m.params m.ret)
  in
  ignore (put_proto b (put_member b 0 m.cls m.name) m.params m.ret);
  Bytes.unsafe_to_string b

let field_desc (f : Ir.Jsig.field) =
  let b = Bytes.create (member_length f.fcls f.fname + type_length f.fty) in
  ignore (put_type b (put_member b 0 f.fcls f.fname) f.fty);
  Bytes.unsafe_to_string b

(** Parse a dexdump method signature back into IR form (step 3 of Fig. 3). *)
let meth_of_desc s =
  let fail () = invalid_arg (Printf.sprintf "Descriptor.meth_of_desc: %S" s) in
  match String.index_opt s '.' with
  | None -> fail ()
  | Some dot ->
    let cls = class_of_desc (String.sub s 0 dot) in
    let rest = String.sub s (dot + 1) (String.length s - dot - 1) in
    (match String.index_opt rest ':' with
     | None -> fail ()
     | Some colon ->
       let name = String.sub rest 0 colon in
       let proto = String.sub rest (colon + 1) (String.length rest - colon - 1) in
       if String.length proto < 2 || proto.[0] <> '(' then fail ();
       let rp = String.index proto ')' in
       let params_s = String.sub proto 1 (rp - 1) in
       let ret_s = String.sub proto (rp + 1) (String.length proto - rp - 1) in
       let rec params pos acc =
         if pos >= String.length params_s then List.rev acc
         else
           let t, p = parse_type params_s pos in
           params p (t :: acc)
       in
       Ir.Jsig.meth ~cls ~name ~params:(params 0 []) ~ret:(type_of_desc ret_s))

(* ------------------------------------------------------------------ *)
(* Interned descriptors: each distinct signature is rendered once and its
   string hash-consed into the process-wide symbol table, so the search
   engine's query construction, cache keys and postings lookups are integer
   operations.  The disassembler interns through these same memos, which is
   what makes a query signature and the indexed operand it must match the
   *same* symbol. *)

let class_desc_sym =
  Sym.memo ~size:1024 ~hash:Hashtbl.hash ~equal:String.equal class_desc

let meth_desc_sym =
  Sym.memo ~size:1024 ~hash:Ir.Jsig.Meth_key.hash ~equal:Ir.Jsig.Meth_key.equal
    meth_desc

let field_desc_sym =
  Sym.memo ~size:256 ~hash:Ir.Jsig.Field_key.hash
    ~equal:Ir.Jsig.Field_key.equal field_desc

let field_of_desc s =
  let fail () = invalid_arg (Printf.sprintf "Descriptor.field_of_desc: %S" s) in
  match String.index_opt s '.' with
  | None -> fail ()
  | Some dot ->
    let cls = class_of_desc (String.sub s 0 dot) in
    let rest = String.sub s (dot + 1) (String.length s - dot - 1) in
    (match String.index_opt rest ':' with
     | None -> fail ()
     | Some colon ->
       let name = String.sub rest 0 colon in
       let ty = type_of_desc (String.sub rest (colon + 1) (String.length rest - colon - 1)) in
       Ir.Jsig.field ~cls ~name ~ty)
