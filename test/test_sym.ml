(* Tests for the hash-consed symbol table: intern/equality/round-trip over
   descriptor-shaped strings (inner classes, arrays, primitive signatures),
   the descriptor symbolizers, and concurrent interning from multiple
   domains. *)

let descriptor_edge_cases =
  [ "Lcom/connectsdk/service/NetcastTVService$1;";   (* anonymous inner *)
    "Lcom/example/Outer$Inner$Deeper;";
    "[Ljava/lang/String;";                           (* object array *)
    "[[I";                                           (* nested primitive array *)
    "I"; "Z"; "J"; "V";                              (* bare primitives *)
    "Lc/A;.m:(ILjava/lang/String;[B)V";              (* method descriptor *)
    "Lc/A;.f:Ljava/util/Map;";                       (* field descriptor *)
    "";                                              (* degenerate: empty *)
    "\"a, b\"" ]                                     (* quoted const-string *)

let test_round_trip () =
  List.iter
    (fun s ->
       let sym = Sym.intern s in
       Alcotest.(check string) ("round-trips " ^ s) s (Sym.to_string sym))
    descriptor_edge_cases

let test_equality_is_identity () =
  List.iter
    (fun s ->
       let a = Sym.intern s in
       (* force a fresh string with equal contents *)
       let b = Sym.intern (String.init (String.length s) (String.get s)) in
       Alcotest.(check bool) ("same symbol for " ^ s) true (Sym.equal a b);
       Alcotest.(check int) "same id" (Sym.id a) (Sym.id b);
       Alcotest.(check int) "same hash" (Sym.hash a) (Sym.hash b);
       Alcotest.(check bool) "to_string is physically shared" true
         (Sym.to_string a == Sym.to_string b))
    descriptor_edge_cases;
  let a = Sym.intern "La;" and b = Sym.intern "Lb;" in
  Alcotest.(check bool) "distinct strings, distinct symbols" false
    (Sym.equal a b)

let test_find () =
  let s = "Ltest/find/Probe$1;" in
  Alcotest.(check bool) "absent before intern" true (Sym.find s = None);
  let sym = Sym.intern s in
  Alcotest.(check bool) "found after intern" true (Sym.find s = Some sym)

let test_interned_monotone () =
  let before = Sym.interned () in
  ignore (Sym.intern "Ltest/monotone/Fresh;");
  let after = Sym.interned () in
  Alcotest.(check bool) "fresh intern grows the table" true (after > before);
  ignore (Sym.intern "Ltest/monotone/Fresh;");
  Alcotest.(check int) "re-intern does not" after (Sym.interned ())

(* The descriptor symbolizers agree with their string-rendering originals
   and intern to the same symbol as a direct intern of the rendering. *)
let test_descriptor_syms () =
  let open Ir in
  let m =
    Jsig.meth ~cls:"com.example.Outer$Inner" ~name:"run"
      ~params:[ Types.Int; Types.Array Types.string_ ] ~ret:Types.Void
  in
  let f = Jsig.field ~cls:"com.example.Cfg" ~name:"SPEC" ~ty:Types.string_ in
  Alcotest.(check string) "meth_desc_sym renders meth_desc"
    (Dex.Descriptor.meth_desc m)
    (Sym.to_string (Dex.Descriptor.meth_desc_sym m));
  Alcotest.(check string) "field_desc_sym renders field_desc"
    (Dex.Descriptor.field_desc f)
    (Sym.to_string (Dex.Descriptor.field_desc_sym f));
  Alcotest.(check string) "class_desc_sym renders class_desc"
    (Dex.Descriptor.class_desc "com.example.Outer$Inner")
    (Sym.to_string (Dex.Descriptor.class_desc_sym "com.example.Outer$Inner"));
  Alcotest.(check bool) "memoized symbol == direct intern" true
    (Sym.equal
       (Dex.Descriptor.meth_desc_sym m)
       (Sym.intern (Dex.Descriptor.meth_desc m)));
  Alcotest.(check bool) "subsig memo is stable" true
    (Sym.equal (Jsig.subsig_sym m) (Jsig.subsig_sym { m with cls = "other.C" }))

(* Concurrent interning: several domains intern overlapping string sets;
   every domain must observe the same id for the same string, and
   to_string must resolve symbols interned by other domains. *)
let test_concurrent_intern () =
  let n_domains = 4 and n_strings = 500 in
  let name i = Printf.sprintf "Ltest/conc/C%03d$%d;" (i mod n_strings) (i mod 7) in
  let worker d =
    Array.init (n_strings * 2) (fun i ->
        (* overlapping but domain-skewed interning order *)
        let s = name (i + (d * 13)) in
        let sym = Sym.intern s in
        (s, Sym.id sym))
  in
  let domains =
    List.init n_domains (fun d -> Domain.spawn (fun () -> worker d))
  in
  let results = List.map Domain.join domains in
  (* same string -> same id, across all domains *)
  let ids = Hashtbl.create 1024 in
  List.iter
    (Array.iter (fun (s, id) ->
         match Hashtbl.find_opt ids s with
         | None -> Hashtbl.replace ids s id
         | Some id' ->
           Alcotest.(check int) ("consistent id for " ^ s) id' id))
    results;
  (* symbols interned elsewhere resolve here, to the right string *)
  Hashtbl.iter
    (fun s id ->
       Alcotest.(check string) "cross-domain to_string" s
         (Sym.to_string (Option.get (Sym.find s)));
       Alcotest.(check int) "find agrees on id" id
         (Sym.id (Option.get (Sym.find s))))
    ids

(* A memo renders with no lock held: while key A's render waits for a
   latch, another domain's lookup of key B returns and then releases the
   latch.  The wait is bounded, so a memo that holds its table lock
   across a render fails here instead of hanging. *)
let test_memo_render_holds_no_lock () =
  let started = Atomic.make false and released = Atomic.make false in
  let seen = Atomic.make false in
  let render k =
    if k = "A" then begin
      Atomic.set started true;
      Atomic.set seen (Test_parallel.await released)
    end;
    Printf.sprintf "Ltest/latch/%s;" k
  in
  let memo = Sym.memo ~hash:Hashtbl.hash ~equal:String.equal render in
  let other =
    Domain.spawn (fun () ->
        ignore (Test_parallel.await started);
        ignore (memo "B");
        Atomic.set released true)
  in
  let a = memo "A" in
  Domain.join other;
  Alcotest.(check bool) "B's lookup returned during A's render" true
    (Atomic.get seen);
  Alcotest.(check string) "A interned its render" "Ltest/latch/A;"
    (Sym.to_string a)

(* The batch intern a snapshot load uses gives every string the id
   one-by-one interning would: an already-interned string keeps its id,
   and the new ones take consecutive ids in first-occurrence order (the
   batch is one critical section, so another domain interning at the same
   time lands before or after it, never among its strings).  Each case
   draws its strings from a fresh namespace; some are interned up front,
   and a second domain interns strings of its own throughout. *)
let batch_intern_like_one_by_one =
  let round = Atomic.make 0 in
  let gen =
    QCheck.Gen.(
      triple
        (list_size (int_range 0 40) (int_range 0 15))
        (list_size (int_range 0 8) (int_range 0 15))
        (int_range 0 200))
  in
  let print (batch, pre, other) =
    Printf.sprintf "batch=[%s] pre=[%s] other=%d"
      (String.concat ";" (List.map string_of_int batch))
      (String.concat ";" (List.map string_of_int pre))
      other
  in
  QCheck.Test.make ~name:"batch intern == one-by-one intern" ~count:100
    (QCheck.make ~print gen)
    (fun (batch, pre, other) ->
       let ns = Atomic.fetch_and_add round 1 in
       let name k = Printf.sprintf "Lbatch/r%d/C%d;" ns k in
       List.iter (fun k -> ignore (Sym.intern (name k))) pre;
       let before = List.map (fun k -> (k, Sym.find (name k))) batch in
       let strs = Array.of_list (List.map name batch) in
       let offsets = Array.make (Array.length strs + 1) 0 in
       Array.iteri
         (fun i s -> offsets.(i + 1) <- offsets.(i) + String.length s)
         strs;
       (* the blob sits at an offset of its vector: slices are cut where
          they lie *)
       let blob = Bvec.of_string ("##" ^ String.concat "" (Array.to_list strs)) in
       let blob = Bigarray.Array1.sub blob 2 (Bvec.length blob - 2) in
       let go = Atomic.make false in
       let rival =
         Domain.spawn (fun () ->
             while not (Atomic.get go) do Domain.cpu_relax () done;
             List.init other (fun j ->
                 Sym.intern (Printf.sprintf "Lbatch/r%d/other%d;" ns j)))
       in
       Atomic.set go true;
       let ids = Sym.intern_slices blob (Ivec.of_array offsets) in
       let others = Domain.join rival in
       if Array.length ids <> Array.length strs then
         QCheck.Test.fail_report "one id per string";
       Array.iteri
         (fun i s ->
            if not (Sym.equal ids.(i) (Sym.intern s)) then
              QCheck.Test.fail_reportf "%s: batch id %d, intern %d" s
                (Sym.id ids.(i)) (Sym.id (Sym.intern s));
            if Sym.to_string ids.(i) <> s then
              QCheck.Test.fail_reportf "%s resolves to %s" s
                (Sym.to_string ids.(i)))
         strs;
       (* interned before: the same id *)
       List.iteri
         (fun i (_, b) ->
            match b with
            | Some sym when not (Sym.equal sym ids.(i)) ->
              QCheck.Test.fail_reportf "%s moved" strs.(i)
            | _ -> ())
         before;
       (* new: consecutive ids in first-occurrence order *)
       let fresh =
         List.sort_uniq compare
           (List.filter_map
              (fun (i, (_, b)) ->
                 if b = None then Some (Sym.id ids.(i)) else None)
              (List.mapi (fun i x -> (i, x)) before))
       in
       let first_seen = Hashtbl.create 16 in
       let order =
         List.filter_map
           (fun (i, (k, b)) ->
              if b <> None || Hashtbl.mem first_seen k then None
              else begin
                Hashtbl.replace first_seen k ();
                Some (Sym.id ids.(i))
              end)
           (List.mapi (fun i x -> (i, x)) before)
       in
       (match fresh with
        | [] -> ()
        | lo :: _ ->
          if order <> List.init (List.length fresh) (fun j -> lo + j) then
            QCheck.Test.fail_reportf "new ids not consecutive in order: %s"
              (String.concat "," (List.map string_of_int order)));
       List.iteri
         (fun j sym ->
            if Sym.to_string sym <> Printf.sprintf "Lbatch/r%d/other%d;" ns j
            then QCheck.Test.fail_report "the rival's symbols resolve")
         others;
       true)

let cases =
  [ Alcotest.test_case "descriptor round-trip" `Quick test_round_trip;
    Alcotest.test_case "equality is identity" `Quick test_equality_is_identity;
    Alcotest.test_case "find: no insertion" `Quick test_find;
    Alcotest.test_case "interned count monotone" `Quick test_interned_monotone;
    Alcotest.test_case "descriptor symbolizers" `Quick test_descriptor_syms;
    Alcotest.test_case "concurrent interning across domains" `Quick
      test_concurrent_intern;
    Alcotest.test_case "memo: a render blocks no other key" `Quick
      test_memo_render_holds_no_lock;
    QCheck_alcotest.to_alcotest batch_intern_like_one_by_one ]

let suites = [ "sym", cases ]
