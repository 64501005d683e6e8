(* Tests for the dexdump substrate: descriptor translation and the
   disassembler's searchable output. *)

open Ir
module D = Dex.Descriptor

let qcheck = QCheck_alcotest.to_alcotest

let gen_nonvoid =
  QCheck.Gen.(
    sized @@ fix (fun self n ->
        let base =
          oneofl
            [ Types.Boolean; Types.Byte; Types.Char; Types.Short; Types.Int;
              Types.Long; Types.Float; Types.Double;
              Types.Object "java.lang.String"; Types.Object "a.b.C$1" ]
        in
        if n <= 0 then base
        else frequency [ 3, base; 1, map (fun t -> Types.Array t) (self (n / 2)) ]))

let gen_meth =
  QCheck.Gen.(
    let* cls = oneofl [ "com.a.B"; "com.foo.Bar"; "x.Y$1" ] in
    let* name = oneofl [ "run"; "start"; "<init>"; "<clinit>" ] in
    let* params = list_size (int_bound 3) gen_nonvoid in
    let* ret = frequency [ 1, return Types.Void; 2, gen_nonvoid ] in
    return (Jsig.meth ~cls ~name ~params ~ret))

let meth_desc_roundtrip =
  QCheck.Test.make ~name:"meth_desc/meth_of_desc roundtrip" ~count:300
    (QCheck.make ~print:Jsig.meth_to_string gen_meth)
    (fun m -> Jsig.meth_equal (D.meth_of_desc (D.meth_desc m)) m)

let type_desc_roundtrip =
  QCheck.Test.make ~name:"type_desc/type_of_desc roundtrip" ~count:300
    (QCheck.make ~print:Types.to_string gen_nonvoid)
    (fun t -> Types.equal (D.type_of_desc (D.type_desc t)) t)

let test_class_desc () =
  Alcotest.(check string) "class desc" "Lcom/connectsdk/service/NetcastTVService$1;"
    (D.class_desc "com.connectsdk.service.NetcastTVService$1");
  Alcotest.(check string) "back" "com.a.B" (D.class_of_desc "Lcom/a/B;")

let test_fig3_signature () =
  (* the signature search string of the paper's Fig. 3 example *)
  let m =
    Jsig.meth ~cls:"com.connectsdk.service.netcast.NetcastHttpServer"
      ~name:"start" ~params:[] ~ret:Types.Void
  in
  Alcotest.(check string) "dexdump format"
    "Lcom/connectsdk/service/netcast/NetcastHttpServer;.start:()V"
    (D.meth_desc m)

let test_field_desc () =
  let f = Jsig.field ~cls:"com.studiosol.palcomp3.MP3LocalServer" ~name:"PORT" ~ty:Types.Int in
  Alcotest.(check string) "field desc"
    "Lcom/studiosol/palcomp3/MP3LocalServer;.PORT:I" (D.field_desc f);
  Alcotest.(check bool) "roundtrip" true (Jsig.field_equal (D.field_of_desc (D.field_desc f)) f)

(* The descriptor renderers as they were written with [Printf] and string
   concatenation: the byte-exact reference for the one-[Bytes] renderers. *)
module Ref = struct
  let class_desc name =
    "L" ^ String.map (fun c -> if c = '.' then '/' else c) name ^ ";"

  let rec type_desc = function
    | Types.Void -> "V"
    | Boolean -> "Z"
    | Byte -> "B"
    | Char -> "C"
    | Short -> "S"
    | Int -> "I"
    | Long -> "J"
    | Float -> "F"
    | Double -> "D"
    | Object c -> class_desc c
    | Array e -> "[" ^ type_desc e

  let proto_desc ~params ~ret =
    "(" ^ String.concat "" (List.map type_desc params) ^ ")" ^ type_desc ret

  let meth_desc (m : Jsig.meth) =
    Printf.sprintf "%s.%s:%s" (class_desc m.cls) m.name
      (proto_desc ~params:m.params ~ret:m.ret)

  let field_desc (f : Jsig.field) =
    Printf.sprintf "%s.%s:%s" (class_desc f.fcls) f.fname (type_desc f.fty)
end

let check_meth_desc (m : Jsig.meth) =
  Alcotest.(check string) "meth_desc" (Ref.meth_desc m) (D.meth_desc m);
  Alcotest.(check string) "proto_desc"
    (Ref.proto_desc ~params:m.params ~ret:m.ret)
    (D.proto_desc ~params:m.params ~ret:m.ret);
  List.iter
    (fun t -> Alcotest.(check string) "type_desc" (Ref.type_desc t) (D.type_desc t))
    (m.ret :: m.params)

let check_field_desc (f : Jsig.field) =
  Alcotest.(check string) "field_desc" (Ref.field_desc f) (D.field_desc f);
  Alcotest.(check string) "type_desc" (Ref.type_desc f.fty) (D.type_desc f.fty)

(* Every method and field an app declares or references, one app per
   shape, framework stubs included. *)
let test_descriptors_match_reference () =
  List.iter
    (fun shape ->
       let app =
         Appgen.Generator.generate ~build_dex:false
           { Appgen.Generator.default_config with
             Appgen.Generator.seed = 3;
             name = "com.dex.desc";
             filler_classes = 2;
             plants =
               [ { Appgen.Generator.shape; sink = Framework.Sinks.cipher;
                   insecure = true } ] }
       in
       Program.fold_classes app.Appgen.Generator.program
         (fun c () ->
            Alcotest.(check string) "class_desc" (Ref.class_desc c.Jclass.name)
              (D.class_desc c.Jclass.name);
            List.iter check_field_desc c.Jclass.fields;
            List.iter
              (fun (m : Jmethod.t) ->
                 check_meth_desc m.msig;
                 Option.iter
                   (Array.iter (fun (st : Stmt.t) ->
                        Option.iter
                          (fun (iv : Expr.invoke) -> check_meth_desc iv.callee)
                          (Stmt.invoke st);
                        match st with
                        | Assign (_, (Instance_get (_, f) | Static_get f))
                        | Instance_put (_, f, _) | Static_put (f, _) ->
                          check_field_desc f
                        | _ -> ()))
                   m.body)
              c.Jclass.methods)
         ())
    Appgen.Shape.all

(* Random class names hold dots, slashes and [$]; random types nest
   arrays of them. *)
let gen_class_name =
  QCheck.Gen.(string_size ~gen:(oneofl [ 'a'; 'Z'; '.'; '$'; '_'; '/'; '1' ])
                (int_bound 12))

let gen_desc_type =
  QCheck.Gen.(
    sized @@ fix (fun self n ->
        let base =
          oneof
            [ oneofl
                [ Types.Void; Types.Boolean; Types.Byte; Types.Char;
                  Types.Short; Types.Int; Types.Long; Types.Float;
                  Types.Double ];
              map (fun c -> Types.Object c) gen_class_name ]
        in
        if n <= 0 then base
        else frequency [ 2, base; 1, map (fun t -> Types.Array t) (self (n - 1)) ]))

let descriptors_match_reference =
  QCheck.Test.make ~name:"descriptors == Printf reference" ~count:500
    (QCheck.make
       ~print:(fun (cls, name, params, ret) ->
           Printf.sprintf "%S %S (%s) %s" cls name
             (String.concat ", " (List.map Ref.type_desc params))
             (Ref.type_desc ret))
       QCheck.Gen.(
         quad gen_class_name gen_class_name
           (list_size (int_bound 4) gen_desc_type) gen_desc_type))
    (fun (cls, name, params, ret) ->
       let m = Jsig.meth ~cls ~name ~params ~ret in
       let f = Jsig.field ~cls ~name ~ty:ret in
       D.class_desc cls = Ref.class_desc cls
       && D.meth_desc m = Ref.meth_desc m
       && D.field_desc f = Ref.field_desc f
       && D.proto_desc ~params ~ret = Ref.proto_desc ~params ~ret
       && List.for_all (fun t -> D.type_desc t = Ref.type_desc t) (ret :: params))

(* --- disassembler --- *)

let tiny_program () =
  let cls = "t.Main" in
  let callee = Jsig.meth ~cls:"t.Helper" ~name:"help" ~params:[ Types.string_ ] ~ret:Types.Void in
  let main =
    Jclass.make cls
      ~methods:
        [ Ir.Builder.method_ ~access:Ir.Builder.static_access ~cls ~name:"m"
            ~params:[] ~ret:Types.Void (fun mb ->
              let s = Ir.Builder.const_str mb "hello" in
              Ir.Builder.call_static mb ~callee ~args:[ Ir.Value.Local s ]) ]
  in
  let helper =
    Jclass.make "t.Helper"
      ~methods:
        [ Ir.Builder.method_ ~access:Ir.Builder.static_access ~cls:"t.Helper"
            ~name:"help" ~params:[ Types.string_ ] ~ret:Types.Void (fun _ -> ()) ]
  in
  Ir.Program.of_classes [ main; helper ]

let test_disasm_invoke_line () =
  let dex = Dex.Dexfile.of_program (tiny_program ()) in
  let text = Dex.Dexfile.to_string dex in
  let contains ~sub s =
    let ls = String.length s and lb = String.length sub in
    let rec at i = i + lb <= ls && (String.sub s i lb = sub || at (i + 1)) in
    at 0
  in
  Alcotest.(check bool) "invoke-static line present" true
    (contains ~sub:"invoke-static {v0}, Lt/Helper;.help:(Ljava/lang/String;)V" text);
  Alcotest.(check bool) "const-string present" true
    (contains ~sub:"const-string v0, \"hello\"" text)

let test_line_ownership () =
  let dex = Dex.Dexfile.of_program (tiny_program ()) in
  let a = dex.Dex.Dexfile.arena in
  let owned =
    List.init (Dex.Arena.length a) (fun s ->
        Dex.Arena.Owners.meth a.Dex.Arena.owners
          (Ivec.get a.Dex.Arena.owner_id s))
  in
  Alcotest.(check bool) "instruction lines carry owners" true
    (List.exists (fun m -> String.equal m.Jsig.name "m") owned)

let test_multidex_merge () =
  let p = tiny_program () in
  let merged = Dex.Dexfile.of_partitions p [ [ "t.Main" ]; [ "t.Helper" ] ] in
  let whole = Dex.Dexfile.of_program p in
  Alcotest.(check int) "same line count after merge"
    (Dex.Dexfile.line_count whole) (Dex.Dexfile.line_count merged)

let test_system_classes_not_disassembled () =
  let p =
    Ir.Program.of_classes (Framework.Stubs.classes () @ [ Jclass.make "app.A" ])
  in
  let dex = Dex.Dexfile.of_program p in
  let text = Dex.Dexfile.to_string dex in
  let contains ~sub s =
    let ls = String.length s and lb = String.length sub in
    let rec at i = i + lb <= ls && (String.sub s i lb = sub || at (i + 1)) in
    at 0
  in
  Alcotest.(check bool) "framework class bodies not in app dex" false
    (contains ~sub:"Class descriptor : 'Ljava/lang/Thread;'" text)

let unit_cases =
  [ Alcotest.test_case "class descriptors" `Quick test_class_desc;
    Alcotest.test_case "fig3 search signature" `Quick test_fig3_signature;
    Alcotest.test_case "field descriptors" `Quick test_field_desc;
    Alcotest.test_case "descriptors match Printf reference" `Quick
      test_descriptors_match_reference;
    Alcotest.test_case "disasm invoke line" `Quick test_disasm_invoke_line;
    Alcotest.test_case "line ownership" `Quick test_line_ownership;
    Alcotest.test_case "multidex merge" `Quick test_multidex_merge;
    Alcotest.test_case "system classes excluded" `Quick
      test_system_classes_not_disassembled ]

(* -- the text store's scan against a naive one per line -- *)

let naive_contains ~pat s =
  let lp = String.length pat in
  let rec at i =
    i + lp <= String.length s && (String.sub s i lp = pat || at (i + 1))
  in
  at 0

let store_of_lines lines =
  let offs = Array.make (List.length lines + 1) 0 in
  List.iteri (fun i l -> offs.(i + 1) <- offs.(i) + String.length l) lines;
  Dex.Textstore.create
    ~blob:(Bvec.of_string (String.concat "" lines))
    ~offs:(Ivec.of_array offs)

let scan_alphabet = [ 'a'; 'b'; ':'; ' ' ]

(* Short lines over a four-letter alphabet, empty ones included, so
   matches repeat within a line; the pattern is random, a slice of the
   concatenated lines (which may straddle a boundary), empty, or longer
   than all the lines together. *)
let gen_scan =
  QCheck.Gen.(
    let letter = oneofl scan_alphabet in
    let* lines =
      list_size (int_bound 12) (string_size ~gen:letter (int_bound 8))
    in
    let blob = String.concat "" lines in
    let* pat =
      oneof
        [ string_size ~gen:letter (int_range 1 4);
          (if blob = "" then return ""
           else
             let* lo = int_bound (String.length blob - 1) in
             let* len = int_range 1 (min 6 (String.length blob - lo)) in
             return (String.sub blob lo len));
          return ""; return (blob ^ "a") ]
    in
    return (lines, pat))

let scan_matches_naive =
  QCheck.Test.make ~name:"text scan == per-line substring test" ~count:500
    (QCheck.make
       ~print:(fun (lines, pat) ->
           Printf.sprintf "lines=[%s] pat=%S"
             (String.concat "; " (List.map (Printf.sprintf "%S") lines)) pat)
       gen_scan)
    (fun (lines, pat) ->
       let t = store_of_lines lines in
       let got = ref [] in
       Dex.Textstore.iter_matches t ~pat (fun i -> got := i :: !got);
       let expect =
         List.concat
           (List.mapi
              (fun i l -> if naive_contains ~pat l then [ i ] else [])
              lines)
       in
       if List.rev !got <> expect then
         QCheck.Test.fail_reportf "iter_matches reported [%s], expected [%s]"
           (String.concat "," (List.map string_of_int (List.rev !got)))
           (String.concat "," (List.map string_of_int expect));
       List.iteri
         (fun i s ->
            if Dex.Textstore.get t i <> s then
              QCheck.Test.fail_reportf "line %d reads back wrong" i;
            List.iter
              (fun c ->
                 let want = Option.value ~default:(-1) (String.index_opt s c) in
                 if Dex.Textstore.index_char t i c <> want then
                   QCheck.Test.fail_reportf "index_char line %d %C" i c)
              scan_alphabet;
            for pos = -1 to String.length s + 1 do
              let lp = String.length pat in
              let want =
                pos >= 0
                && pos + lp <= String.length s
                && String.sub s pos lp = pat
              in
              if Dex.Textstore.starts_with t i ~pos ~prefix:pat <> want then
                QCheck.Test.fail_reportf "starts_with line %d at %d" i pos
            done)
         lines;
       true)

let prop_cases =
  List.map qcheck
    [ meth_desc_roundtrip; type_desc_roundtrip; scan_matches_naive;
      descriptors_match_reference ]

(* --- golden rendering --- *)

(* One hand-built class that exercises every statement and expression
   constructor and every constant kind.  Its rendering is pinned line by
   line (text, key and tokens), and so is the order in which the renderer
   numbers registers and interns symbols: snapshot files store symbol ids,
   so that order is part of their format.  Three locals not seen before
   number right to left ([add-int v5, v4, v3]); a phi numbers an operand
   defined later before its own target; a cast and an invoke with a result
   number their destination first. *)
let g_cls = "golden.render.Widget"
let kind = "golden.render.Kind"

let golden_class () =
  let l id ty = { Value.id; ty } in
  let loc x = Value.Local x in
  let obj c = Types.Object c in
  let this_ = l "this" (obj g_cls) in
  let p0 = l "p0" Types.string_ and p1 = l "p1" Types.Int in
  let sum = l "sum" Types.Int and lhs = l "lhs" Types.Int
  and rhs = l "rhs" Types.Int in
  let phi = l "phi" Types.Int and later = l "later" Types.Int in
  let s = l "s" Types.string_ and k = l "k" (obj "java.lang.Class") in
  let i = l "i" Types.Int and n = l "n" (obj kind) in
  let lg = l "lg" Types.Long and fl = l "fl" Types.Float
  and db = l "db" Types.Double in
  let mv = l "mv" Types.string_ in
  let cast = l "cast" (obj kind) and src = l "src" Types.object_ in
  let r = l "r" Types.string_ and arg = l "arg" Types.Int in
  let o = l "o" (obj kind) and arr = l "arr" (Types.Array (obj kind)) in
  let el = l "el" (obj kind) and fv = l "fv" Types.string_
  and sv = l "sv" (obj kind) and ex = l "ex" (obj "java.lang.Throwable")
  and len = l "len" Types.Int in
  let x = l "x" Types.Int and y = l "y" Types.Int in
  let f_name = Jsig.field ~cls:g_cls ~name:"gName" ~ty:Types.string_ in
  let f_count = Jsig.field ~cls:g_cls ~name:"gCount" ~ty:Types.Int in
  let f_shared = Jsig.field ~cls:g_cls ~name:"gShared" ~ty:(obj kind) in
  let m_fmt =
    Jsig.meth ~cls:g_cls ~name:"fmt"
      ~params:
        [ obj "java.lang.Class"; Types.string_; Types.Int; Types.Int;
          Types.Long; Types.Float; obj kind; Types.Int ]
      ~ret:Types.string_
  in
  let m_static = Jsig.meth ~cls:kind ~name:"touch" ~params:[] ~ret:Types.Void in
  let m_iface =
    Jsig.meth ~cls:"golden.render.Iface1" ~name:"accept"
      ~params:[ Types.string_ ] ~ret:Types.Void
  in
  let m_init = Jsig.meth ~cls:kind ~name:"<init>" ~params:[] ~ret:Types.Void in
  let body : Stmt.t array =
    [| Assign (this_, This);
       Assign (p0, Param 0);
       Assign (p1, Param 1);
       Assign (sum, Binop (Add, loc lhs, loc rhs));
       Assign (phi, Phi [ sum; later ]);
       Assign (later, Binop (Cmp, loc phi, Const (Int_c 1)));
       Assign (s, Imm (Const (Str_c "say \"hi\", Lgolden/render/InString;\n\t\001")));
       Assign (k, Imm (Const (Class_c kind)));
       Assign (i, Imm (Const (Int_c (-42))));
       Assign (n, Imm (Const Null));
       Assign (lg, Imm (Const (Long_c 1234567890123L)));
       Assign (fl, Imm (Const (Float_c 1.5)));
       Assign (db, Imm (Const (Double_c (-0.25))));
       Assign (mv, Imm (Local s));
       Assign (cast, Cast (obj kind, loc src));
       Assign
         (r,
          Invoke
            { kind = Virtual; callee = m_fmt; base = Some this_;
              args =
                [ Const (Class_c "golden.render.Arg");
                  Const (Str_c "a, \"b\"\\"); loc arg; Const (Int_c 7);
                  Const (Long_c (-9L)); Const (Float_c 2.5); Const Null;
                  loc i ] });
       Assign (o, New kind);
       Assign (arr, New_array (obj kind, loc i));
       Assign (el, Array_get (arr, Const (Int_c 0)));
       Assign (fv, Instance_get (this_, f_name));
       Assign (sv, Static_get f_shared);
       Assign (ex, Caught_exception);
       Assign (len, Length (loc arr));
       Instance_put (this_, f_count, loc i);
       Static_put (f_shared, loc o);
       Array_put (arr, Const (Int_c 1), loc el);
       Invoke { kind = Static; callee = m_static; base = None; args = [] };
       Invoke
         { kind = Interface; callee = m_iface; base = Some o; args = [ loc s ] };
       Invoke { kind = Special; callee = m_init; base = Some o; args = [] };
       If (Lt, loc i, Const (Int_c 3), 0x1c);
       If (Ge, loc x, loc y, 0xabcd);
       Goto 0x12345;
       Goto 3;
       Nop;
       Throw (loc ex);
       Return (Some (loc r));
       Return None |]
  in
  let render =
    Jmethod.make
      ~msig:
        (Jsig.meth ~cls:g_cls ~name:"render"
           ~params:[ Types.string_; Types.Int ] ~ret:Types.string_)
      ~body:(Some body) ()
  in
  let wide =
    Jmethod.make
      ~msig:(Jsig.meth ~cls:g_cls ~name:"wide" ~params:[] ~ret:Types.Void)
      ~body:
        (Some
           (Array.init 260 (fun j ->
                Stmt.Assign
                  (l ("w" ^ string_of_int j) Types.Int,
                   Imm (Const (Int_c j))))))
      ()
  in
  let abstract =
    Jmethod.make
      ~msig:(Jsig.meth ~cls:g_cls ~name:"shape" ~params:[] ~ret:(obj kind))
      ~body:None ()
  in
  Jclass.make g_cls ~super:(Some "golden.render.Base")
    ~interfaces:[ "golden.render.Iface1"; "golden.render.Iface2" ]
    ~fields:[ f_name; f_count; f_shared ]
    ~methods:[ render; wide; abstract ]

let golden_render =
  [ ("Class descriptor : 'Lgolden/render/Widget;'", "none", None);
    ("  Superclass : 'Lgolden/render/Base;'", "none", None);
    ("  Interface : 'Lgolden/render/Iface1;'", "none", None);
    ("  Interface : 'Lgolden/render/Iface2;'", "none", None);
    ("  field Lgolden/render/Widget;.gName:Ljava/lang/String;", "none", None);
    ("  field Lgolden/render/Widget;.gCount:I", "none", None);
    ( "  field Lgolden/render/Widget;.gShared:Lgolden/render/Kind;",
      "none",
      None );
    ( "  method Lgolden/render/Widget;.render:(Ljava/lang/String;I)Ljava/lang/String;",
      "none",
      None );
    ("    0000: .this v0", "none", None);
    ("    0001: .param v1, p0", "none", None);
    ("    0002: .param v2, p1", "none", None);
    ("    0003: add-int v5, v4, v3", "none", None);
    ("    0004: .phi v7 = (v5, v6)", "none", None);
    ("    0005: cmp-long v6, v7, #int 1", "none", None);
    ( "    0006: const-string v8, \"say \\\"hi\\\", Lgolden/render/InString;\\n\\t\\001\"",
      "const-string \"say \\\"hi\\\", Lgolden/render/InString;\\n\\t\\001\"",
      Some ["Lgolden/render/InString;"] );
    ( "    0007: const-class v9, Lgolden/render/Kind;",
      "const-class Lgolden/render/Kind;",
      Some ["Lgolden/render/Kind;"] );
    ("    0008: const/16 v10, #int -42", "none", None);
    ("    0009: const/4 v11, #int 0", "none", None);
    ("    000a: const-wide v12, #long 1234567890123", "none", None);
    ("    000b: const v13, #float 1.500000", "none", None);
    ("    000c: const-wide v14, #double -0.250000", "none", None);
    ("    000d: move-object v15, v8", "none", None);
    ("    000e: move-object v16, v17", "none", None);
    ( "    000e: check-cast v16, Lgolden/render/Kind;",
      "none",
      Some ["Lgolden/render/Kind;"] );
    ( "    000f: invoke-virtual {v0, Lgolden/render/Arg;, \"a, \\\"b\\\"\\\\\", v19, #int 7, #long -9, #float 2.500000, #null, v10}, Lgolden/render/Widget;.fmt:(Ljava/lang/Class;Ljava/lang/String;IIJFLgolden/render/Kind;I)Ljava/lang/String;",
      "invoke Lgolden/render/Widget;.fmt:(Ljava/lang/Class;Ljava/lang/String;IIJFLgolden/render/Kind;I)Ljava/lang/String;",
      Some
        [ "Lgolden/render/Arg;"; "Lgolden/render/Widget;"; "Ljava/lang/Class;";
          "Ljava/lang/String;" ] );
    ("    000f: move-result-object v18", "none", None);
    ( "    0010: new-instance v20, Lgolden/render/Kind;",
      "new-instance Lgolden/render/Kind;",
      Some ["Lgolden/render/Kind;"] );
    ( "    0011: new-array v21, v10, [Lgolden/render/Kind;",
      "none",
      Some ["Lgolden/render/Kind;"] );
    ("    0012: aget-object v22, v21, #int 0", "none", None);
    ( "    0013: iget-object v23, v0, Lgolden/render/Widget;.gName:Ljava/lang/String;",
      "field Lgolden/render/Widget;.gName:Ljava/lang/String;",
      Some ["Lgolden/render/Widget;"; "Ljava/lang/String;"] );
    ( "    0014: sget-object v24, Lgolden/render/Widget;.gShared:Lgolden/render/Kind;",
      "static-field Lgolden/render/Widget;.gShared:Lgolden/render/Kind;",
      Some ["Lgolden/render/Kind;"; "Lgolden/render/Widget;"] );
    ("    0015: move-exception v25", "none", None);
    ("    0016: array-length v26, v21", "none", None);
    ( "    0017: iput-object v10, v0, Lgolden/render/Widget;.gCount:I",
      "field Lgolden/render/Widget;.gCount:I",
      Some ["Lgolden/render/Widget;"] );
    ( "    0018: sput-object v20, Lgolden/render/Widget;.gShared:Lgolden/render/Kind;",
      "static-field Lgolden/render/Widget;.gShared:Lgolden/render/Kind;",
      Some ["Lgolden/render/Kind;"; "Lgolden/render/Widget;"] );
    ("    0019: aput-object v22, v21, #int 1", "none", None);
    ( "    001a: invoke-static {}, Lgolden/render/Kind;.touch:()V",
      "invoke Lgolden/render/Kind;.touch:()V",
      Some ["Lgolden/render/Kind;"] );
    ( "    001b: invoke-interface {v20, v8}, Lgolden/render/Iface1;.accept:(Ljava/lang/String;)V",
      "invoke Lgolden/render/Iface1;.accept:(Ljava/lang/String;)V",
      Some ["Lgolden/render/Iface1;"; "Ljava/lang/String;"] );
    ( "    001c: invoke-direct {v20}, Lgolden/render/Kind;.<init>:()V",
      "invoke Lgolden/render/Kind;.<init>:()V",
      Some ["Lgolden/render/Kind;"] );
    ("    001d: if-lt v10, #int 3, :cond_001c", "none", None);
    ("    001e: if-ge v28, v27, :cond_abcd", "none", None);
    ("    001f: goto :goto_12345", "none", None);
    ("    0020: goto :goto_0003", "none", None);
    ("    0021: nop", "none", None);
    ("    0022: throw v25", "none", None);
    ("    0023: return-object v18", "none", None);
    ("    0024: return-void", "none", None) ]

(* the [wide] method crosses the 256 precomputed register names *)
let golden_wide =
  ("  method Lgolden/render/Widget;.wide:()V", "none", None)
  :: List.init 260 (fun j ->
      (Printf.sprintf "    %04x: const/16 v%d, #int %d" j j j, "none", None))

let golden_abstract =
  [ ("  method Lgolden/render/Widget;.shape:()Lgolden/render/Kind;", "none",
     None) ]

let key_string (a : Dex.Arena.t) cat sym =
  match
    List.assoc_opt cat
      Dex.Arena.
        [ (cat_invoke, "invoke"); (cat_new_instance, "new-instance");
          (cat_const_class, "const-class"); (cat_const_string, "const-string");
          (cat_field, "field"); (cat_static_field, "static-field") ]
  with
  | Some k -> k ^ " " ^ Sym.to_string a.syms.(sym)
  | None -> "none"

let golden_dex () =
  Dex.Dexfile.of_program (Program.of_classes [ golden_class () ])

(* Each line's text, its arena key and, for a line with a slot, its class
   tokens. *)
let golden_lines () =
  let dex = golden_dex () in
  let a = dex.Dex.Dexfile.arena in
  let slot_of = Hashtbl.create 64 in
  for s = 0 to Dex.Arena.length a - 1 do
    Hashtbl.replace slot_of (Ivec.get a.Dex.Arena.line_idx s) s
  done;
  List.init (Dex.Dexfile.line_count dex) (fun i ->
      let text = Dex.Dexfile.line_text dex i in
      match Hashtbl.find_opt slot_of i with
      | None -> (text, "none", None)
      | Some s ->
        let toks = ref [] in
        Dex.Dexfile.iter_tokens dex ~lo:s ~hi:(s + 1) (fun tok _ ->
            toks := Sym.to_string a.Dex.Arena.syms.(tok) :: !toks);
        ( text,
          key_string a (Ivec.get a.Dex.Arena.cat s)
            (Ivec.get a.Dex.Arena.sym s),
          Some (List.sort String.compare !toks) ))

let test_golden_rendering () =
  let got = golden_lines () in
  Alcotest.(check (list (triple string string (option (list string)))))
    "golden lines"
    (golden_render @ golden_wide @ golden_abstract)
    got

(* An index pass numbers the symbols it indexes in the order it meets
   them: line by line, a keyed line's operand, then that operand's class
   tokens, then the class tokens of the line's other operands, each in
   text order.  Snapshots store these numbers, so the order is pinned, and
   it does not depend on what the process interned before: a second
   render, after another app's, numbers the same way. *)
let test_golden_intern_order () =
  let table () =
    Array.to_list
      (Array.map Sym.to_string (golden_dex ()).Dex.Dexfile.arena.Dex.Arena.syms)
  in
  let first = table () in
  Alcotest.(check (list string)) "local ids in the order the pass met them"
    [ "\"say \\\"hi\\\", Lgolden/render/InString;\\n\\t\\001\"";
      "Lgolden/render/InString;"; "Lgolden/render/Kind;";
      "Lgolden/render/Widget;.fmt:(Ljava/lang/Class;Ljava/lang/String;IIJFLgolden/render/Kind;I)Ljava/lang/String;";
      "Lgolden/render/Widget;"; "Ljava/lang/Class;"; "Ljava/lang/String;";
      "Lgolden/render/Arg;";
      "Lgolden/render/Widget;.gName:Ljava/lang/String;";
      "Lgolden/render/Widget;.gShared:Lgolden/render/Kind;";
      "Lgolden/render/Widget;.gCount:I"; "Lgolden/render/Kind;.touch:()V";
      "Lgolden/render/Iface1;.accept:(Ljava/lang/String;)V";
      "Lgolden/render/Iface1;"; "Lgolden/render/Kind;.<init>:()V" ]
    first;
  ignore
    (Dex.Dexfile.of_program
       (Appgen.Generator.generate ~build_dex:false
          { Appgen.Generator.default_config with
            Appgen.Generator.seed = 3; name = "com.dex.before" })
         .Appgen.Generator.program);
  Alcotest.(check (list string)) "the same after another app's pass" first
    (table ())

(* Snapshot files store these hashes and a delta compares them against a
   fresh build's, so their values must never change. *)
let test_pinned_hashes () =
  let c = golden_class () in
  Alcotest.(check int64) "Irhash.jclass" 0x5eb4bbb021bb68ffL (Irhash.jclass c);
  let cm =
    Dex.Dexfile.classmap (Dex.Dexfile.of_program (Program.of_classes [ c ]))
  in
  Alcotest.(check int64) "class IR hash" 0x5eb4bbb021bb68ffL
    cm.Dex.Classmap.ir_hash.(0);
  List.iter
    (fun (s, h) ->
       Alcotest.(check int64) (Printf.sprintf "Irhash.string %S" s) h
         (Irhash.string Irhash.offset_basis s))
    [ ("", 0xa8c7f832281a39c5L); ("BackDroid", 0x4575c1f532bce0f7L);
      ("\xff\x00\x80 Lcom/a/B;", 0x89aeba18c82f5c1cL) ]

let golden_cases =
  [ Alcotest.test_case "golden class rendering" `Quick test_golden_rendering;
    Alcotest.test_case "golden intern order" `Quick test_golden_intern_order;
    Alcotest.test_case "pinned content hashes" `Quick test_pinned_hashes ]


(* --- the index pass and the text pass --- *)

let cat_of_opcode op =
  let pre p = String.starts_with ~prefix:p op in
  if pre "invoke-" then Dex.Arena.cat_invoke
  else if op = "new-instance" then Dex.Arena.cat_new_instance
  else if op = "const-class" then Dex.Arena.cat_const_class
  else if op = "const-string" then Dex.Arena.cat_const_string
  else if pre "iget" || pre "iput" then Dex.Arena.cat_field
  else if pre "sget" || pre "sput" then Dex.Arena.cat_static_field
  else Dex.Arena.cat_none

let slot_tokens dex s =
  let toks = ref [] in
  Dex.Dexfile.iter_tokens dex ~lo:s ~hi:(s + 1) (fun tok _ ->
      toks := tok :: !toks);
  List.rev !toks

(* The text pass renders what the index pass recorded.  Parsed back,
   each instruction line that is keyed, or whose text holds a [';'] (and
   so may hold a class token), has exactly one slot, with its owner,
   statement, category, operand and class tokens; every other instruction
   line has no slot and no class token, and a header line no slot.  The
   owner and statement located from each line's class layout
   ([Dexfile.locator]) are the parsed ones for every instruction line.
   Rendering the text interns no symbol. *)
let check_passes dex =
  let fail fmt = QCheck.Test.fail_reportf fmt in
  let interned = Sym.interned () in
  let text = Dex.Dexfile.to_string dex in
  if Sym.interned () <> interned then
    fail "the text pass interned %d symbols" (Sym.interned () - interned);
  let parsed = Dexdump.parse_text text in
  if Array.length parsed.Dexdump.lines <> Dex.Dexfile.line_count dex then
    fail "%d lines parsed, %d indexed" (Array.length parsed.Dexdump.lines)
      (Dex.Dexfile.line_count dex);
  let a = dex.Dex.Dexfile.arena in
  let locate = Dex.Dexfile.locator dex in
  let slot = ref 0 in
  Array.iteri
    (fun i (line, owner, cls) ->
       let slot_here =
         !slot < Dex.Arena.length a && Ivec.get a.Dex.Arena.line_idx !slot = i
       in
       match (line : Dexdump.line) with
       | Instruction ins ->
         let raw = Dex.Dexfile.line_text dex i in
         (match (locate i, owner, cls) with
          | Some (o, c, st), Some o', Some c'
            when Jsig.meth_equal o o' && String.equal c c' && st = ins.addr ->
            ()
          | Some (o, c, st), _, _ ->
            fail "line %d: located in %s of %s at %d" i
              (Jsig.meth_to_string o) c st
          | None, _, _ -> fail "instruction line %d not located" i);
         let b = Bytes.of_string raw in
         let toks =
           Array.to_list
             (Array.map Sym.to_string
                (Dex.Tokens.of_bytes b ~pos:0 ~len:(Bytes.length b)))
         in
         let cat = cat_of_opcode ins.opcode in
         if cat = Dex.Arena.cat_none && not (String.contains raw ';') then begin
           if slot_here then fail "line %d has a slot: %S" i raw;
           if toks <> [] then fail "line %d: tokens of %S" i raw
         end
         else begin
           if not slot_here then fail "line %d has no slot: %S" i raw;
           let s = !slot in
           incr slot;
           let o =
             Dex.Arena.Owners.meth a.Dex.Arena.owners
               (Ivec.get a.Dex.Arena.owner_id s)
           in
           if not (Option.fold ~none:false ~some:(Jsig.meth_equal o) owner)
           then fail "line %d: owner %s" i (Jsig.meth_to_string o);
           if Ivec.get a.Dex.Arena.stmt_idx s <> ins.addr then
             fail "line %d: statement %d" i (Ivec.get a.Dex.Arena.stmt_idx s);
           let sym = Ivec.get a.Dex.Arena.sym s in
           if Ivec.get a.Dex.Arena.cat s <> cat then
             fail "line %d: category %d for %S" i (Ivec.get a.Dex.Arena.cat s)
               raw;
           let indexed =
             List.map (fun l -> Sym.to_string a.Dex.Arena.syms.(l))
               (slot_tokens dex s)
           in
           if List.sort compare toks <> List.sort compare indexed then
             fail "line %d: tokens of %S" i raw;
           if cat = Dex.Arena.cat_none then begin
             if sym <> -1 then fail "line %d: unkeyed slot with a symbol" i
           end
           else if
             not
               (String.ends_with
                  ~suffix:(", " ^ Sym.to_string a.Dex.Arena.syms.(sym))
                  raw)
           then fail "line %d: operand of %S" i raw
         end
       | _ ->
         if slot_here then fail "header line %d has a slot" i;
         if locate i <> None then fail "header line %d located" i)
    parsed.Dexdump.lines;
  if !slot <> Dex.Arena.length a then fail "%d slots past the last line"
      (Dex.Arena.length a - !slot);
  true

let gen_passes_app =
  QCheck.Gen.(
    let* seed = int_bound 100_000 in
    let* plants =
      list_size (int_bound 3)
        (let* shape = oneofl Appgen.Shape.all in
         let* sink =
           oneofl
             Framework.Sinks.[ cipher; ssl_factory; https_conn; webview_js ]
         in
         let* insecure = bool in
         return { Appgen.Generator.shape; sink; insecure })
    in
    let* filler_classes = int_range 1 6 in
    let* filler_methods_per_class = int_range 1 5 in
    let* filler_stmts_per_method = int_range 1 16 in
    let* filler_dispatch_p = float_bound_inclusive 1.0 in
    let* filler_fanout_max = int_range 0 4 in
    let* filler_jump_locality = int_bound 4 in
    (* 0: one dex; k > 0: classes.dex partitions of k classes *)
    let* partition = int_bound 4 in
    return
      ( { Appgen.Generator.default_config with
          Appgen.Generator.seed; name = Printf.sprintf "com.dex.passes%d" seed;
          plants;
          filler_classes; filler_methods_per_class; filler_stmts_per_method;
          filler_dispatch_p; filler_fanout_max; filler_jump_locality },
        partition ))

let rec chunks k = function
  | [] -> []
  | xs ->
    List.filteri (fun i _ -> i < k) xs
    :: chunks k (List.filteri (fun i _ -> i >= k) xs)

let passes_agree =
  QCheck.Test.make ~name:"text pass == index pass" ~count:40
    (QCheck.make
       ~print:(fun ((c : Appgen.Generator.config), k) ->
           Printf.sprintf "seed=%d plants=%d filler=%d/%d/%d partition=%d"
             c.seed (List.length c.plants) c.filler_classes
             c.filler_methods_per_class c.filler_stmts_per_method k)
       gen_passes_app)
    (fun (cfg, partition) ->
       let app = Appgen.Generator.generate ~build_dex:false cfg in
       let p = app.Appgen.Generator.program in
       let dex =
         if partition = 0 then Dex.Dexfile.of_program p
         else
           (* reversed name order, so the merge is not the sorted render *)
           Dex.Dexfile.of_partitions p
             (chunks partition
                (List.rev_map
                   (fun (c : Jclass.t) -> c.name)
                   (Dex.Disasm.app_classes p)))
       in
       check_passes dex)

let renders () =
  Option.value ~default:0
    (List.assoc_opt "dex.text.renders"
       (Obs.Metrics.snapshot ()).Obs.Metrics.counters)

(* Each test names its app apart, so that the app's symbols are new to the
   process when it is indexed. *)
let passes_app name =
  Appgen.Generator.generate
    { Appgen.Generator.default_config with
      Appgen.Generator.seed = 19;
      name;
      filler_classes = 4;
      plants =
        [ { Appgen.Generator.shape = Appgen.Shape.Callback;
            sink = Framework.Sinks.cipher; insecure = true } ] }

(* A one-shot analysis reads no line text: counting lines, the class
   tokens, an indexed engine and the analysis render none of it.  A scan
   engine renders it at creation, once. *)
let test_what_renders_text () =
  let app = passes_app "com.dex.lazy" in
  let dex = app.Appgen.Generator.dex in
  let r0 = renders () in
  Alcotest.(check bool) "lines counted" true (Dex.Dexfile.line_count dex > 0);
  Dex.Dexfile.iter_tokens dex ~lo:0
    ~hi:(Dex.Arena.length dex.Dex.Dexfile.arena) (fun _ _ -> ());
  let engine = Bytesearch.Engine.create dex in
  let r =
    Backdroid.Driver.analyze ~engine ~dex
      ~manifest:app.Appgen.Generator.manifest ()
  in
  Alcotest.(check int) "the planted flow is found" 1
    (List.length (Backdroid.Driver.insecure_reports r));
  Alcotest.(check int) "no text rendered" r0 (renders ());
  let scan = Dex.Dexfile.of_program app.Appgen.Generator.program in
  ignore (Bytesearch.Engine.create ~indexed:false scan);
  Alcotest.(check int) "a scan engine renders the text" (r0 + 1) (renders ());
  ignore (Dex.Dexfile.to_string scan);
  Alcotest.(check int) "once" (r0 + 1) (renders ())

let test_text_interns_nothing () =
  let app = passes_app "com.dex.interns" in
  let dex = Dex.Dexfile.of_program app.Appgen.Generator.program in
  let n = Sym.interned () in
  ignore (Dex.Dexfile.text dex);
  Alcotest.(check int) "symbols interned" n (Sym.interned ())

let test_concurrent_forcing () =
  let app = passes_app "com.dex.racing" in
  let dex = Dex.Dexfile.of_program app.Appgen.Generator.program in
  let r0 = renders () in
  let force () = Domain.spawn (fun () -> Dex.Dexfile.text dex) in
  let d1 = force () and d2 = force () in
  let t1 = Domain.join d1 and t2 = Domain.join d2 in
  Alcotest.(check bool) "one physical store" true (t1 == t2);
  Alcotest.(check bool) "kept" true (Dex.Dexfile.text dex == t1);
  Alcotest.(check int) "rendered once" (r0 + 1) (renders ())

let passes_cases =
  [ Alcotest.test_case "what renders the text" `Quick test_what_renders_text;
    Alcotest.test_case "text pass interns nothing" `Quick
      test_text_interns_nothing;
    Alcotest.test_case "concurrent forcing" `Quick test_concurrent_forcing;
    qcheck passes_agree ]

(* --- plaintext parser (round-trip with the disassembler) --- *)

let test_parse_roundtrip_structure () =
  let app =
    Appgen.Generator.generate
      { Appgen.Generator.default_config with
        Appgen.Generator.seed = 41;
        name = "com.dex.parse";
        filler_classes = 4;
        plants =
          [ { Appgen.Generator.shape = Appgen.Shape.Direct;
              sink = Framework.Sinks.cipher; insecure = true } ] }
  in
  let text = Dex.Dexfile.to_string app.Appgen.Generator.dex in
  let parsed = Dexdump.parse_text text in
  Alcotest.(check int) "same class count"
    (Ir.Program.class_count app.Appgen.Generator.program)
    (List.length parsed.Dexdump.classes);
  Alcotest.(check int) "same method count"
    (Ir.Program.method_count app.Appgen.Generator.program)
    (List.length parsed.Dexdump.methods)

let test_parse_invocations_match_ir () =
  let app =
    Appgen.Generator.generate
      { Appgen.Generator.default_config with
        Appgen.Generator.seed = 42;
        name = "com.dex.parse2";
        filler_classes = 3 }
  in
  let text = Dex.Dexfile.to_string app.Appgen.Generator.dex in
  let parsed = Dexdump.parse_text text in
  let parsed_calls = Dexdump.invocations parsed in
  (* every IR call site appears as a parsed invocation with the same callee *)
  let ir_calls =
    Ir.Program.fold_classes app.Appgen.Generator.program
      (fun c acc ->
         if c.Ir.Jclass.is_system then acc
         else
           acc
           + List.fold_left
               (fun a m -> a + List.length (Ir.Jmethod.call_sites m))
               0 c.Ir.Jclass.methods)
      0
  in
  Alcotest.(check int) "same invocation count" ir_calls
    (List.length parsed_calls);
  Alcotest.(check bool) "all callers are program methods" true
    (List.for_all
       (fun (caller, _, _) ->
          Option.is_some (Ir.Program.find_method app.Appgen.Generator.program caller))
       parsed_calls)

let test_parse_line_kinds () =
  (match Dexdump.parse_line "Class descriptor : 'Lcom/a/B;'" with
   | Dexdump.Class_header c -> Alcotest.(check string) "class" "com.a.B" c
   | _ -> Alcotest.fail "expected class header");
  (match Dexdump.parse_line "    0004: invoke-static {v0, v1}, Lcom/a/B;.f:(I)V" with
   | Dexdump.Instruction i ->
     Alcotest.(check int) "addr" 4 i.Dexdump.addr;
     Alcotest.(check string) "opcode" "invoke-static" i.Dexdump.opcode;
     Alcotest.(check (list string)) "regs" [ "v0"; "v1" ] i.Dexdump.registers;
     (match i.Dexdump.operand with
      | Some (Dexdump.Meth_ref m) ->
        Alcotest.(check string) "callee" "f" m.Ir.Jsig.name
      | _ -> Alcotest.fail "expected method operand")
   | _ -> Alcotest.fail "expected instruction");
  (match Dexdump.parse_line "    0002: const-string v1, \"AES/ECB\"" with
   | Dexdump.Instruction { operand = Some (Dexdump.String_lit s); _ } ->
     Alcotest.(check string) "string" "AES/ECB" s
   | _ -> Alcotest.fail "expected const-string");
  (match Dexdump.parse_line "    0003: sget-object v0, Lcom/a/B;.F:I" with
   | Dexdump.Instruction { operand = Some (Dexdump.Field_ref f); _ } ->
     Alcotest.(check string) "field" "F" f.Ir.Jsig.fname
   | _ -> Alcotest.fail "expected field operand");
  match Dexdump.parse_line "garbage that is not dexdump" with
  | exception Dexdump.Parse_error _ -> ()
  | _ -> Alcotest.fail "expected parse error"

(* property: every generated app's plaintext parses without error *)
let parse_total =
  QCheck.Test.make ~name:"generated plaintext always parses" ~count:25
    QCheck.(make Gen.(int_bound 10_000))
    (fun seed ->
       let app =
         Appgen.Generator.generate
           { Appgen.Generator.default_config with
             Appgen.Generator.seed;
             name = "com.dex.prop";
             filler_classes = 2;
             plants =
               [ { Appgen.Generator.shape = Appgen.Shape.Callback;
                   sink = Framework.Sinks.ssl_factory; insecure = true } ] }
       in
       let parsed =
         Dexdump.parse_text (Dex.Dexfile.to_string app.Appgen.Generator.dex)
       in
       Array.length parsed.Dexdump.lines > 0)

let parser_cases =
  [ Alcotest.test_case "roundtrip structure" `Quick test_parse_roundtrip_structure;
    Alcotest.test_case "invocations match IR" `Quick test_parse_invocations_match_ir;
    Alcotest.test_case "line kinds" `Quick test_parse_line_kinds ]

let parser_props = [ QCheck_alcotest.to_alcotest parse_total ]

let suites =
  [ "dex.unit", unit_cases; "dex.golden", golden_cases; "dex.props", prop_cases;
    "dex.passes", passes_cases;
    "dex.parser", parser_cases; "dex.parser-props", parser_props ]
