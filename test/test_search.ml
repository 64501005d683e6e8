(* Tests for the bytecode search engine and its caches. *)

open Ir
module Q = Bytesearch.Query
module E = Bytesearch.Engine

let b_static cls name params ret = Jsig.meth ~cls ~name ~params ~ret

let fixture () =
  let callee = b_static "s.Util" "enc" [ Types.string_ ] Types.Void in
  let fld = Jsig.field ~cls:"s.Cfg" ~name:"SPEC" ~ty:Types.string_ in
  let caller cls =
    Jclass.make cls
      ~methods:
        [ Ir.Builder.method_ ~access:Ir.Builder.static_access ~cls ~name:"go"
            ~params:[] ~ret:Types.Void (fun mb ->
              let s = Ir.Builder.const_str mb "AES" in
              Ir.Builder.call_static mb ~callee ~args:[ Ir.Value.Local s ]) ]
  in
  let cfg =
    Jclass.make "s.Cfg" ~fields:[ fld ]
      ~methods:
        [ Ir.Builder.clinit ~cls:"s.Cfg" (fun mb ->
              let v = Ir.Builder.const_str mb "X" in
              Ir.Builder.sput mb fld (Ir.Value.Local v));
          Ir.Builder.method_ ~access:Ir.Builder.static_access ~cls:"s.Cfg"
            ~name:"read" ~params:[] ~ret:Types.string_ (fun mb ->
              let v = Ir.Builder.sget mb fld in
              Ir.Builder.return_val mb (Ir.Value.Local v)) ]
  in
  let util =
    Jclass.make "s.Util"
      ~methods:
        [ Ir.Builder.method_ ~access:Ir.Builder.static_access ~cls:"s.Util"
            ~name:"enc" ~params:[ Types.string_ ] ~ret:Types.Void (fun _ -> ()) ]
  in
  let user =
    Jclass.make "s.User"
      ~methods:
        [ Ir.Builder.method_ ~access:Ir.Builder.static_access ~cls:"s.User"
            ~name:"use" ~params:[] ~ret:Types.Void (fun mb ->
              ignore
                (Ir.Builder.invoke_ret mb ~kind:Expr.Static
                   ~callee:(b_static "s.Cfg" "read" [] Types.string_) ~args:[] ())) ]
  in
  let p = Ir.Program.of_classes [ caller "s.A"; caller "s.B"; cfg; util; user ] in
  E.create (Dex.Dexfile.of_program p), callee, fld

let test_invocation_search () =
  let e, callee, _ = fixture () in
  let hits = E.run e (Q.invocation (Dex.Descriptor.meth_desc callee)) in
  let owners =
    List.map (fun (h : E.hit) -> h.owner.Jsig.cls) hits |> List.sort_uniq compare
  in
  Alcotest.(check (list string)) "two callers" [ "s.A"; "s.B" ] owners

let test_field_search () =
  let e, _, fld = fixture () in
  let hits = E.run e (Q.static_field_access (Dex.Descriptor.field_desc fld)) in
  Alcotest.(check int) "sput in clinit + sget in read" 2 (List.length hits)

let test_const_string_search () =
  let e, _, _ = fixture () in
  let hits = E.run e (Q.const_string "AES") in
  Alcotest.(check int) "one per caller" 2 (List.length hits)

let test_class_use_excludes_self () =
  let e, _, _ = fixture () in
  let hits = E.run e (Q.class_use "Ls/Cfg;") in
  let owners =
    List.map (fun (h : E.hit) -> h.owner_cls) hits |> List.sort_uniq compare
  in
  Alcotest.(check (list string)) "only the external user" [ "s.User" ] owners

let test_no_hits () =
  let e, _, _ = fixture () in
  Alcotest.(check int) "absent signature finds nothing" 0
    (List.length (E.run e (Q.invocation "Lno/Such;.m:()V")))

(* The calling domain's lookups while [f] runs: (total, cached, per
   category). *)
let counted f =
  let l0 = E.local_counts () in
  f ();
  let l1 = E.local_counts () in
  ( l1.Bytesearch.Cache.lc_total - l0.Bytesearch.Cache.lc_total,
    l1.Bytesearch.Cache.lc_cached - l0.Bytesearch.Cache.lc_cached,
    Array.mapi (fun i n -> n - l0.Bytesearch.Cache.lc_by_cat.(i))
      l1.Bytesearch.Cache.lc_by_cat )

let test_cache_hits () =
  let e, callee, _ = fixture () in
  let q = Q.invocation (Dex.Descriptor.meth_desc callee) in
  let total, cached, _ =
    counted (fun () ->
        ignore (E.run e q);
        ignore (E.run e q);
        ignore (E.run e q))
  in
  Alcotest.(check int) "three searches" 3 total;
  Alcotest.(check int) "two cached" 2 cached

let test_cache_categories () =
  let e, callee, fld = fixture () in
  let _, _, by_cat =
    counted (fun () ->
        ignore (E.run e (Q.invocation (Dex.Descriptor.meth_desc callee)));
        ignore
          (E.run e (Q.static_field_access (Dex.Descriptor.field_desc fld)));
        ignore (E.run e (Q.class_use "Ls/Cfg;")))
  in
  let count cat = by_cat.(Q.category_index cat) in
  Alcotest.(check int) "caller category counted" 1 (count Q.Cat_caller);
  Alcotest.(check int) "field category counted" 1 (count Q.Cat_field);
  Alcotest.(check int) "class category counted" 1 (count Q.Cat_class)

(* A miss computes with no lock held: while key A's compute waits for a
   latch, another domain's lookup of key B returns and then releases the
   latch.  The wait is bounded, so a cache that holds a lock across a
   compute fails here instead of hanging. *)
let test_cache_miss_holds_no_lock () =
  let module C = Bytesearch.Cache in
  let cache : int C.t = C.create () in
  let started = Atomic.make false and released = Atomic.make false in
  let other =
    Domain.spawn (fun () ->
        ignore (Test_parallel.await started);
        let total, cached, _ =
          counted (fun () ->
              ignore
                (C.find_or_add cache (Q.invocation "Llatch/B;.m:()V")
                   (fun () -> [])))
        in
        Atomic.set released true;
        (total, cached))
  in
  let seen = ref [] in
  let total, cached, _ =
    counted (fun () ->
        seen :=
          C.find_or_add cache (Q.invocation "Llatch/A;.m:()V") (fun () ->
              Atomic.set started true;
              [ Bool.to_int (Test_parallel.await released) ]))
  in
  let other_total, other_cached = Domain.join other in
  Alcotest.(check (list int)) "B's lookup returned during A's compute" [ 1 ]
    !seen;
  Alcotest.(check (pair int int)) "two searches, both misses" (2, 0)
    (total + other_total, cached + other_cached)

let test_command_rendering () =
  Alcotest.(check bool) "commands are distinct cache keys" true
    (not
       (String.equal
          (Q.to_command (Q.invocation "La;.m:()V"))
          (Q.to_command (Q.new_instance "La;.m:()V"))))

(* property: searching for a generated static callee always finds the call
   the builder emitted *)
let search_finds_planted =
  QCheck.Test.make ~name:"invocation search finds planted calls" ~count:50
    QCheck.(make Gen.(int_bound 1000))
    (fun n ->
       let cls = Printf.sprintf "p.C%d" n in
       let callee =
         Jsig.meth ~cls:"p.Callee" ~name:(Printf.sprintf "m%d" n) ~params:[]
           ~ret:Types.Void
       in
       let caller =
         Jclass.make cls
           ~methods:
             [ Ir.Builder.method_ ~access:Ir.Builder.static_access ~cls
                 ~name:"go" ~params:[] ~ret:Types.Void (fun mb ->
                   Ir.Builder.call_static mb ~callee ~args:[]) ]
       in
       let callee_cls =
         Jclass.make "p.Callee"
           ~methods:
             [ Ir.Builder.method_ ~access:Ir.Builder.static_access
                 ~cls:"p.Callee" ~name:(Printf.sprintf "m%d" n) ~params:[]
                 ~ret:Types.Void (fun _ -> ()) ]
       in
       let e =
         E.create
           (Dex.Dexfile.of_program (Ir.Program.of_classes [ caller; callee_cls ]))
       in
       List.length (E.run e (Q.invocation (Dex.Descriptor.meth_desc callee))) = 1)

let unit_cases =
  [ Alcotest.test_case "invocation search" `Quick test_invocation_search;
    Alcotest.test_case "static field search" `Quick test_field_search;
    Alcotest.test_case "const-string search" `Quick test_const_string_search;
    Alcotest.test_case "class-use excludes self" `Quick test_class_use_excludes_self;
    Alcotest.test_case "no hits" `Quick test_no_hits;
    Alcotest.test_case "cache hits" `Quick test_cache_hits;
    Alcotest.test_case "cache categories" `Quick test_cache_categories;
    Alcotest.test_case "cache: a miss blocks no other key" `Quick
      test_cache_miss_holds_no_lock;
    Alcotest.test_case "command rendering" `Quick test_command_rendering ]

let prop_cases = [ QCheck_alcotest.to_alcotest search_finds_planted ]

let suites = [ "search.unit", unit_cases; "search.props", prop_cases ]
