(* Unit and property tests for the IR substrate. *)

open Ir

let qcheck = QCheck_alcotest.to_alcotest

(* --- generators --- *)

let gen_type =
  QCheck.Gen.(
    sized @@ fix (fun self n ->
        let base =
          oneofl
            [ Types.Void; Types.Boolean; Types.Byte; Types.Char; Types.Short;
              Types.Int; Types.Long; Types.Float; Types.Double;
              Types.Object "java.lang.String"; Types.Object "com.example.Foo" ]
        in
        if n <= 0 then base
        else frequency [ 3, base; 1, map (fun t -> Types.Array t) (self (n / 2)) ]))

let arb_type = QCheck.make ~print:Types.to_string gen_type

let gen_nonvoid = QCheck.Gen.(map (function Types.Void -> Types.Int | t -> t) gen_type)
let arb_nonvoid = QCheck.make ~print:Types.to_string gen_nonvoid

let gen_meth =
  QCheck.Gen.(
    let* cls = oneofl [ "com.a.B"; "com.foo.bar.Baz"; "x.Y$1"; "single.K" ] in
    let* name = oneofl [ "run"; "doWork"; "<init>"; "<clinit>"; "getX" ] in
    let* params = list_size (int_bound 4) gen_nonvoid in
    let* ret = gen_type in
    return (Jsig.meth ~cls ~name ~params ~ret))

let arb_meth = QCheck.make ~print:Jsig.meth_to_string gen_meth

(* --- properties --- *)

let type_roundtrip =
  QCheck.Test.make ~name:"Types.of_string/to_string roundtrip" ~count:200
    arb_type (fun t -> Types.equal (Types.of_string (Types.to_string t)) t)

let meth_roundtrip =
  QCheck.Test.make ~name:"Jsig.meth_of_string/to_string roundtrip" ~count:200
    arb_meth (fun m -> Jsig.meth_equal (Jsig.meth_of_string (Jsig.meth_to_string m)) m)

let subsig_class_independent =
  QCheck.Test.make ~name:"sub_signature is class independent" ~count:100
    arb_meth (fun m ->
      String.equal (Jsig.sub_signature m)
        (Jsig.sub_signature { m with Jsig.cls = "other.Cls" }))

(* --- unit tests --- *)

let mk_class ?super ?(interfaces = []) ?(methods = []) name =
  Jclass.make ?super ~interfaces ~methods name

let sample_program () =
  let m cls name =
    Ir.Builder.method_ ~cls ~name ~params:[] ~ret:Types.Void (fun mb ->
        Ir.Builder.return_void mb)
  in
  Ir.Program.of_classes
    [ mk_class "a.Base" ~methods:[ m "a.Base" "go"; m "a.Base" "only" ];
      mk_class "a.Mid" ~super:(Some "a.Base") ~methods:[ m "a.Mid" "go" ];
      mk_class "a.Leaf" ~super:(Some "a.Mid");
      mk_class "a.I" ~methods:[] ~interfaces:[];
      { (mk_class "a.Iface") with Jclass.is_interface = true };
      mk_class "a.Impl" ~interfaces:[ "a.Iface" ] ]

let test_superclasses () =
  let p = sample_program () in
  Alcotest.(check (list string)) "leaf superclasses"
    [ "a.Mid"; "a.Base"; "java.lang.Object" ]
    (Program.superclasses p "a.Leaf")

let test_subclasses () =
  let p = sample_program () in
  Alcotest.(check (list string)) "base subclasses (sorted)"
    [ "a.Leaf"; "a.Mid" ]
    (List.sort String.compare (Program.subclasses_transitive p "a.Base"))

let test_resolve_override () =
  let p = sample_program () in
  match Program.resolve_method p "a.Leaf" "void go()" with
  | Some (cls, _) -> Alcotest.(check string) "resolves to Mid.go" "a.Mid" cls.Jclass.name
  | None -> Alcotest.fail "void go() not resolved"

let test_resolve_inherited () =
  let p = sample_program () in
  match Program.resolve_method p "a.Leaf" "void only()" with
  | Some (cls, _) -> Alcotest.(check string) "resolves to Base.only" "a.Base" cls.Jclass.name
  | None -> Alcotest.fail "void only() not resolved"

let test_subclass_overrides () =
  let p = sample_program () in
  Alcotest.(check bool) "go is overridden below Base" true
    (Program.subclass_overrides p "a.Base" "void go()");
  Alcotest.(check bool) "only is not overridden" false
    (Program.subclass_overrides p "a.Base" "void only()")

let test_overrides_foreign () =
  let p = sample_program () in
  Alcotest.(check bool) "Mid.go overrides Base.go" true
    (Program.overrides_foreign_declaration p
       (Jsig.meth ~cls:"a.Mid" ~name:"go" ~params:[] ~ret:Types.Void));
  Alcotest.(check bool) "Base.only overrides nothing" false
    (Program.overrides_foreign_declaration p
       (Jsig.meth ~cls:"a.Base" ~name:"only" ~params:[] ~ret:Types.Void))

let test_builder_identity_stmts () =
  let m =
    Ir.Builder.method_ ~cls:"t.C" ~name:"f" ~params:[ Types.Int; Types.string_ ]
      ~ret:Types.Void (fun mb ->
        ignore (Ir.Builder.const_int mb 42))
  in
  (match Jmethod.this_local m with
   | Some l -> Alcotest.(check string) "this type" "t.C" (Types.to_string l.Value.ty)
   | None -> Alcotest.fail "no this local");
  (match Jmethod.param_local m 1 with
   | Some l ->
     Alcotest.(check string) "param1 type" "java.lang.String"
       (Types.to_string l.Value.ty)
   | None -> Alcotest.fail "no param1 local");
  let body = Option.get m.Jmethod.body in
  (match body.(Array.length body - 1) with
   | Stmt.Return None -> ()
   | s -> Alcotest.fail ("auto return missing: " ^ Stmt.to_string s))

let test_static_method_no_this () =
  let m =
    Ir.Builder.method_ ~access:Ir.Builder.static_access ~cls:"t.C" ~name:"s"
      ~params:[] ~ret:Types.Void (fun _ -> ())
  in
  Alcotest.(check bool) "static has no this" true (Jmethod.this_local m = None);
  Alcotest.(check bool) "static is a signature method" true
    (Jmethod.is_signature_method m)

let test_clinit_not_signature_method () =
  let m = Ir.Builder.clinit ~cls:"t.C" (fun _ -> ()) in
  Alcotest.(check bool) "clinit excluded from signature methods" false
    (Jmethod.is_signature_method m)

let test_stmt_def_use () =
  let l = { Value.id = "$r0"; ty = Types.Int } in
  let r = { Value.id = "$r1"; ty = Types.Int } in
  let s = Stmt.Assign (l, Expr.Binop (Expr.Add, Value.Local r, Value.Const (Value.Int_c 1))) in
  (match Stmt.def s with
   | Some d -> Alcotest.(check string) "def" "$r0" d.Value.id
   | None -> Alcotest.fail "no def");
  Alcotest.(check int) "uses" 2 (List.length (Stmt.uses s))

let test_code_size_excludes_system () =
  let p =
    Ir.Program.of_classes
      (Framework.Stubs.classes ()
       @ [ mk_class "app.C"
             ~methods:
               [ Ir.Builder.method_ ~cls:"app.C" ~name:"f" ~params:[]
                   ~ret:Types.Void (fun mb -> Ir.Builder.return_void mb) ] ])
  in
  (* body: this identity + return *)
  Alcotest.(check int) "app stmts only" 2 (Program.code_size p)

let unit_cases =
  [ Alcotest.test_case "superclasses" `Quick test_superclasses;
    Alcotest.test_case "subclasses" `Quick test_subclasses;
    Alcotest.test_case "resolve override" `Quick test_resolve_override;
    Alcotest.test_case "resolve inherited" `Quick test_resolve_inherited;
    Alcotest.test_case "subclass_overrides" `Quick test_subclass_overrides;
    Alcotest.test_case "overrides_foreign_declaration" `Quick test_overrides_foreign;
    Alcotest.test_case "builder identity stmts" `Quick test_builder_identity_stmts;
    Alcotest.test_case "static method" `Quick test_static_method_no_this;
    Alcotest.test_case "clinit dispatch exclusion" `Quick test_clinit_not_signature_method;
    Alcotest.test_case "stmt def/use" `Quick test_stmt_def_use;
    Alcotest.test_case "code_size excludes system" `Quick test_code_size_excludes_system ]

(* --- signature renderers against a Printf reference --- *)

let ref_sub_signature (m : Jsig.meth) =
  Printf.sprintf "%s %s(%s)" (Types.to_string m.ret) m.name
    (String.concat "," (List.map Types.to_string m.params))

let ref_meth_to_string (m : Jsig.meth) =
  Printf.sprintf "<%s: %s>" m.cls (ref_sub_signature m)

let ref_field_to_string (f : Jsig.field) =
  Printf.sprintf "<%s: %s %s>" f.fcls (Types.to_string f.fty) f.fname

(* One small app per code shape; their programs include the framework
   stubs. *)
let shape_apps =
  lazy
    (List.map
       (fun shape ->
          Appgen.Generator.generate
            { Appgen.Generator.default_config with
              Appgen.Generator.seed = 31;
              name = "com.render." ^ Appgen.Shape.to_string shape;
              filler_classes = 2;
              plants =
                [ { Appgen.Generator.shape; sink = Framework.Sinks.cipher;
                    insecure = true } ] })
       Appgen.Shape.all)

(* Every method and field a program declares or references. *)
let signatures_of p =
  Program.fold_classes p
    (fun c (ms, fs) ->
       List.fold_left
         (fun (ms, fs) (m : Jmethod.t) ->
            let body = Option.value ~default:[||] m.body in
            Array.fold_left
              (fun (ms, fs) st ->
                 let ms =
                   match Stmt.invoke st with
                   | Some iv -> iv.Expr.callee :: ms
                   | None -> ms
                 in
                 match st with
                 | Stmt.Instance_put (_, f, _) | Stmt.Static_put (f, _)
                 | Stmt.Assign (_, (Expr.Instance_get (_, f) | Expr.Static_get f))
                   -> (ms, f :: fs)
                 | _ -> (ms, fs))
              (m.msig :: ms, fs) body)
         (ms, c.Jclass.fields @ fs) c.Jclass.methods)
    ([], [])

let test_renderers_match_printf () =
  let checked = ref 0 in
  List.iter
    (fun (app : Appgen.Generator.app) ->
       let ms, fs = signatures_of app.program in
       List.iter
         (fun m ->
            incr checked;
            Alcotest.(check string) "sub_signature" (ref_sub_signature m)
              (Jsig.sub_signature m);
            Alcotest.(check string) "meth_to_string" (ref_meth_to_string m)
              (Jsig.meth_to_string m);
            Alcotest.(check bool) "meth_of_string inverts meth_to_string" true
              (Jsig.meth_equal (Jsig.meth_of_string (Jsig.meth_to_string m)) m);
            Alcotest.(check (option string)) "subsig_name" (Some m.name)
              (Jsig.subsig_name (Jsig.sub_signature m)))
         ms;
       List.iter
         (fun f ->
            incr checked;
            Alcotest.(check string) "field_to_string" (ref_field_to_string f)
              (Jsig.field_to_string f))
         fs)
    (Lazy.force shape_apps);
  Alcotest.(check bool) "stubs and plants were rendered" true (!checked > 1000)

let gen_field =
  QCheck.Gen.(
    let* cls = oneofl [ "com.a.B"; "x.Y$1"; "single.K" ] in
    let* name = oneofl [ "spec"; "f"; "ALLOW_ALL"; "$this0" ] in
    let* ty = gen_nonvoid in
    return (Jsig.field ~cls ~name ~ty))

let renderers_match_printf =
  QCheck.Test.make ~name:"renderers equal their Printf reference" ~count:300
    (QCheck.pair arb_meth (QCheck.make gen_field)) (fun (m, f) ->
      String.equal (Jsig.sub_signature m) (ref_sub_signature m)
      && String.equal (Jsig.meth_to_string m) (ref_meth_to_string m)
      && String.equal (Jsig.field_to_string f) (ref_field_to_string f))

(* [b] is either a deep copy of [a], with fresh strings, or an unrelated
   draw: the copies exercise the implication, the draws its negation. *)
let fresh s = Bytes.to_string (Bytes.of_string s)

let rec copy_type = function
  | Types.Object c -> Types.Object (fresh c)
  | Types.Array e -> Types.Array (copy_type e)
  | t -> t

let copy_meth (m : Jsig.meth) =
  Jsig.meth ~cls:(fresh m.cls) ~name:(fresh m.name)
    ~params:(List.map copy_type m.params) ~ret:(copy_type m.ret)

let pair_gen gen copy =
  QCheck.Gen.(
    let* a = gen in
    let* b = frequency [ 1, return (copy a); 1, gen ] in
    return (a, b))

let meth_key_hash_consistent =
  QCheck.Test.make ~name:"Meth_key: equal keys hash equal" ~count:500
    (QCheck.make (pair_gen gen_meth copy_meth)) (fun (a, b) ->
      (not (Jsig.Meth_key.equal a b))
      || Jsig.Meth_key.hash a = Jsig.Meth_key.hash b)

let field_key_hash_consistent =
  QCheck.Test.make ~name:"Field_key: equal keys hash equal" ~count:500
    (QCheck.make
       (pair_gen gen_field (fun (f : Jsig.field) ->
            Jsig.field ~cls:(fresh f.fcls) ~name:(fresh f.fname)
              ~ty:(copy_type f.fty))))
    (fun (a, b) ->
       (not (Jsig.Field_key.equal a b))
       || Jsig.Field_key.hash a = Jsig.Field_key.hash b)

(* --- hierarchy caches against uncached walks --- *)

let class_names p =
  "no.such.Class"
  :: List.sort String.compare
       (Program.fold_classes p (fun c acc -> c.Jclass.name :: acc) [])

let uncached_ancestors p n = Program.superclasses p n @ Program.interfaces_of p n

let uncached_is_subclass_of p ~sub ~super =
  String.equal sub super || List.mem super (uncached_ancestors p sub)

let uncached_direct_subclasses p n =
  Program.fold_classes p
    (fun (c : Jclass.t) acc ->
       if c.super = Some n || List.mem n c.interfaces then c.name :: acc
       else acc)
    []
  |> List.sort String.compare

(* Programs with every shape planted at once, so that app subclasses,
   interface implementers, component classes, filler and the framework
   stubs share one hierarchy. *)
let hierarchy_programs =
  lazy
    (List.map
       (fun seed ->
          (Appgen.Generator.generate
             { Appgen.Generator.default_config with
               Appgen.Generator.seed;
               name = "com.hier" ^ string_of_int seed;
               filler_classes = 8;
               plants =
                 List.map
                   (fun shape ->
                      { Appgen.Generator.shape; sink = Framework.Sinks.cipher;
                        insecure = true })
                   Appgen.Shape.all })
            .program)
       [ 3; 17; 42 ])

let test_hierarchy_cache_matches_walk () =
  List.iter
    (fun p ->
       let names = class_names p in
       List.iter
         (fun sub ->
            Alcotest.(check (list string)) ("ancestors of " ^ sub)
              (uncached_ancestors p sub) (Program.ancestors p sub);
            Alcotest.(check (list string)) ("direct subclasses of " ^ sub)
              (uncached_direct_subclasses p sub)
              (List.sort String.compare (Program.direct_subclasses p sub));
            List.iter
              (fun super ->
                 if
                   Program.is_subclass_of p ~sub ~super
                   <> uncached_is_subclass_of p ~sub ~super
                 then Alcotest.failf "is_subclass_of %s %s" sub super)
              names)
         names)
    (Lazy.force hierarchy_programs)

let test_add_class_resets_caches () =
  let p = sample_program () in
  Alcotest.(check bool) "absent class" false
    (Program.is_subclass_of p ~sub:"a.New" ~super:"a.Base");
  Alcotest.(check (list string)) "no ancestors yet" [] (Program.ancestors p "a.New");
  Alcotest.(check (list string)) "Leaf has no subclass" []
    (Program.subclasses_transitive p "a.Leaf");
  Program.add_class p (mk_class "a.New" ~super:(Some "a.Leaf") ~interfaces:[ "a.Iface" ]);
  Alcotest.(check bool) "added below Base" true
    (Program.is_subclass_of p ~sub:"a.New" ~super:"a.Base");
  Alcotest.(check bool) "implements Iface" true
    (Program.is_subclass_of p ~sub:"a.New" ~super:"a.Iface");
  Alcotest.(check (list string)) "ancestors after add"
    [ "a.Leaf"; "a.Mid"; "a.Base"; "java.lang.Object"; "a.Iface" ]
    (Program.ancestors p "a.New");
  Alcotest.(check (list string)) "Leaf gained a subclass" [ "a.New" ]
    (Program.subclasses_transitive p "a.Leaf");
  Alcotest.(check (list string)) "Iface gained an implementer"
    [ "a.Impl"; "a.New" ]
    (List.sort String.compare (Program.subclasses_transitive p "a.Iface"))

(* Every hierarchy answer of [p] over [names], in a fixed order. *)
let hierarchy_answers p names =
  List.concat_map
    (fun sub ->
       String.concat "," (Program.ancestors p sub)
       :: String.concat "," (Program.subclasses_transitive p sub)
       :: List.map
            (fun super -> string_of_bool (Program.is_subclass_of p ~sub ~super))
            names)
    names

let test_two_domains_share_fresh_program () =
  List.iter
    (fun program ->
       let classes = Program.fold_classes program (fun c acc -> c :: acc) [] in
       let names = class_names program in
       let expected = hierarchy_answers (Program.of_classes classes) names in
       let p = Program.of_classes classes in
       let ready = Atomic.make 0 in
       let run () =
         Atomic.incr ready;
         while Atomic.get ready < 2 do Domain.cpu_relax () done;
         hierarchy_answers p names
       in
       let d1 = Domain.spawn run and d2 = Domain.spawn run in
       let a1 = Domain.join d1 and a2 = Domain.join d2 in
       Alcotest.(check (list string)) "first domain" expected a1;
       Alcotest.(check (list string)) "second domain" expected a2)
    (Lazy.force hierarchy_programs)

let cache_cases =
  [ Alcotest.test_case "renderers match Printf on all shapes" `Quick
      test_renderers_match_printf;
    Alcotest.test_case "hierarchy cache matches uncached walk" `Quick
      test_hierarchy_cache_matches_walk;
    Alcotest.test_case "add_class resets hierarchy caches" `Quick
      test_add_class_resets_caches;
    Alcotest.test_case "two domains query a fresh program" `Quick
      test_two_domains_share_fresh_program ]

let prop_cases =
  List.map qcheck
    [ type_roundtrip; meth_roundtrip; subsig_class_independent;
      renderers_match_printf; meth_key_hash_consistent;
      field_key_hash_consistent ]

let suites =
  [ "ir.unit", unit_cases; "ir.caches", cache_cases; "ir.props", prop_cases ]
