(** The bytecode search engine: executes typed queries over the dexdump
    plaintext, returning hits mapped back to their enclosing methods, with
    query-level caching.

    Indexed mode answers queries from per-category postings: for each of the
    seven searchable categories, a packed triple — ascending operand ids,
    local to the arena's symbol table, byte offsets, and
    {!Postcodec}-coded slot runs into the dexfile's hit {!Dex.Arena}, all
    off-heap.  A query maps its symbol to the arena's local id through the
    engine's key table, once per cache miss.  Postings are built from the
    arena's operand column and, for class tokens, from the tokens the
    dexfile kept for the slots it rendered ({!Dex.Dexfile.iter_tokens}) —
    no text re-parsing, and never over slots a snapshot supplied — and hit
    records are materialised only for slots a query actually returns; a
    hit carries no text.  Scan mode and free-form [Raw] queries match
    against the dexfile's one text store ({!Dex.Textstore.iter_matches});
    they are the only readers of the text ({!Dex.Dexfile.text}), which
    every dexfile, cold, loaded or delta-built, renders on first read.  The
    packed layout is deterministic (keys sorted by local id, slots in
    arena order, each run's bytes a pure function of its slots), so a
    build and a snapshot load of one arena produce byte-identical tables,
    and those tables are the snapshot file's postings sections as they
    are.

    Each category's postings are a {!Parallel.Once} cell, built on the
    first query of that category, so an analysis that never issues, say,
    a [Const_class] query never pays for that table.  {!export_packed} —
    the snapshot save and delta paths — builds whatever is still missing.
    The arena makes a build a single sequential pass over unboxed int
    vectors, so laziness is where the time goes. *)

type hit = {
  line_no : int;
  owner : Ir.Jsig.meth;     (** enclosing method of the matching line *)
  owner_cls : string;
  stmt_idx : int option;
}

(* Engine category indices.  0-3 coincide with the arena's category codes;
   field_ops is the union of instance and static field accesses (an
   [Field_access] query must see sget/sput lines too). *)
let cat_invocations = 0
let cat_new_instances = 1
let cat_const_classes = 2
let cat_const_strings = 3
let cat_field_ops = 4
let cat_static_field_ops = 5
let cat_class_tokens = 6
let n_categories = 7

let category_name = function
  | 0 -> "invocations"
  | 1 -> "new_instances"
  | 2 -> "const_classes"
  | 3 -> "const_strings"
  | 4 -> "field_ops"
  | 5 -> "static_field_ops"
  | 6 -> "class_tokens"
  | _ -> invalid_arg "Engine.category_name"

module Packed = struct
  (** One category's postings: [keys] is the strictly ascending operand
      ids, local to the arena's symbol table, and key [k]'s slots —
      strictly ascending arena slots — are the {!Postcodec} run at bytes
      [offsets.(k) .. offsets.(k+1)-1] of [runs] (varint deltas for sparse
      keys, bitmap words for dense ones), decoded on demand by
      {!iter_key}.  Each run is self-contained, so a key's postings move
      as one byte range.  All vectors live off the OCaml heap; a snapshot
      load aliases them to mmapped file sections. *)
  type t = { keys : Ivec.t; offsets : Ivec.t; runs : Bvec.t }

  let n_keys t = Ivec.length t.keys

  (** Slot count of key index [k] — O(1): the coded run leads with its
      count. *)
  let count t k = Postcodec.count t.runs ~pos:(Ivec.get t.offsets k)

  (** Apply [f] to each slot of key index [k], ascending. *)
  let iter_key t k f = Postcodec.iter t.runs ~pos:(Ivec.get t.offsets k) f

  let n_slots t =
    let total = ref 0 in
    for k = 0 to n_keys t - 1 do
      total := !total + count t k
    done;
    !total

  (** In-memory footprint in bytes (mapped or heap-side). *)
  let bytes t =
    ((Ivec.length t.keys + Ivec.length t.offsets) * 8) + Bvec.length t.runs

  (* Encode a sorted CSR — key [k]'s run is [slots.(flat.(k)) ..
     slots.(flat.(k+1)-1)] — into the coded layout. *)
  let encode ~keys ~flat ~slots =
    let nk = Ivec.length keys in
    let offsets = Ivec.create (nk + 1) in
    let buf = Buffer.create (max 64 (Ivec.length slots)) in
    for k = 0 to nk - 1 do
      Ivec.set offsets k (Buffer.length buf);
      Postcodec.encode buf slots ~lo:flat.(k) ~hi:flat.(k + 1)
    done;
    Ivec.set offsets nk (Buffer.length buf);
    { keys; offsets; runs = Bvec.of_string (Buffer.contents buf) }
end

type postings = Packed.t

module Keys = Hashtbl.Make (struct
    type t = Sym.t
    let equal = Sym.equal
    let hash = Sym.hash
  end)

type t = {
  dex : Dex.Dexfile.t;
  keys : int Keys.t;  (** symbol -> its local id in the arena's table *)
  cache : hit Cache.t;
  indexed : bool;
  load_mode : string option;
      (** postings installed wholesale (a snapshot load or delta patch):
          the label {!index_mode} reports; [None] = built in-process *)
  tables : postings Parallel.Once.t array;  (** one cell per category *)
  build_us : float array;
      (** per-category build cost, written before its cell fills *)
  ruleset : int option Atomic.t;
      (** content hash of the rule set this engine last searched under *)
}

(* ------------------------------------------------------------------ *)
(* Postings construction                                               *)

(* A deterministic counting sort over arena slots, then one encoding
   pass.  The first pass counts postings per local id, in a counter per
   entry of the arena's table; the keys are laid out ascending, each with
   its range of slots; the second pass writes each posting at its key's
   cursor.  Slots are visited in ascending order, so every key's run is
   strictly ascending, and the coded bytes — keys ascending by local id,
   each run encoded from its slots alone — are identical for built and
   snapshot-loaded tables.  No per-posting allocation. *)

let cat_member c =
  if c = cat_field_ops then fun k ->
    k = Dex.Arena.cat_field || k = Dex.Arena.cat_static_field
  else if c = cat_static_field_ops then fun k -> k = Dex.Arena.cat_static_field
  else fun k -> k = c

(* Apply [f key slot] to each posting of category [c] in slots
   [lo .. hi-1], in slot order — the one definition of what a category
   indexes, shared by the build and delta passes. *)
let iter_postings (dex : Dex.Dexfile.t) c ~lo ~hi f =
  let a : Dex.Arena.t = dex.arena in
  if c = cat_class_tokens then Dex.Dexfile.iter_tokens dex ~lo ~hi f
  else begin
    let member = cat_member c in
    for slot = lo to hi - 1 do
      if member (Ivec.unsafe_get a.cat slot) then
        f (Ivec.unsafe_get a.sym slot) slot
    done
  end

let build_postings (dex : Dex.Dexfile.t) c =
  let n = Dex.Arena.length dex.arena in
  let n_syms = Array.length dex.arena.Dex.Arena.syms in
  (* each key's count becomes its write cursor, from its range's start *)
  let cursor = Array.make n_syms 0 in
  iter_postings dex c ~lo:0 ~hi:n (fun k _ ->
      cursor.(k) <- cursor.(k) + 1);
  let nk = ref 0 in
  for k = 0 to n_syms - 1 do
    if cursor.(k) > 0 then incr nk
  done;
  let keys = Ivec.create !nk in
  let flat = Array.make (!nk + 1) 0 in
  let ki = ref 0 and pos = ref 0 in
  for k = 0 to n_syms - 1 do
    let count = cursor.(k) in
    if count > 0 then begin
      Ivec.set keys !ki k;
      cursor.(k) <- !pos;
      pos := !pos + count;
      flat.(!ki + 1) <- !pos;
      incr ki
    end
  done;
  let slots = Ivec.create !pos in
  iter_postings dex c ~lo:0 ~hi:n (fun k slot ->
      let p = Array.unsafe_get cursor k in
      Ivec.set slots p slot;
      Array.unsafe_set cursor k (p + 1));
  Packed.encode ~keys ~flat ~slots

let m_builds = Obs.Metrics.counter "search.postings.builds"
let m_slots = Obs.Metrics.counter "search.postings.slots"
let m_bytes = Obs.Metrics.counter "search.postings.bytes"

let ensure_category t c =
  Parallel.Once.get t.tables.(c) (fun () ->
      let span0 = Obs.Span.start () in
      let t0 = Unix.gettimeofday () in
      let p = build_postings t.dex c in
      t.build_us.(c) <- (Unix.gettimeofday () -. t0) *. 1e6;
      let n_slots = Packed.n_slots p in
      Obs.Metrics.incr m_builds;
      Obs.Metrics.add m_slots n_slots;
      Obs.Metrics.add m_bytes (Packed.bytes p);
      Obs.Span.emit ~cat:"search" ~name:("build:" ^ category_name c)
        ~attrs:[ ("keys", Obs.Span.Int (Packed.n_keys p));
                 ("slots", Obs.Span.Int n_slots) ]
        span0;
      p)

(* The arena table's inverse, or [None] when the table holds a symbol
   twice (one probe per entry: a repeat leaves the count short). *)
let key_table (dex : Dex.Dexfile.t) =
  let syms = dex.arena.Dex.Arena.syms in
  let keys = Keys.create (Array.length syms) in
  Array.iteri (fun l sym -> Keys.replace keys sym l) syms;
  if Keys.length keys = Array.length syms then Some keys else None

let make ~indexed ~load_mode ~keys dex tables =
  { dex; keys; cache = Cache.create (); indexed; load_mode; tables;
    build_us = Array.make n_categories 0.0;
    ruleset = Atomic.make None }

(* A scan engine reads the text from its first query on: render it now,
   so that preprocessing, not the first query, pays for it. *)
let create ?(indexed = true) dex =
  if not indexed then ignore (Dex.Dexfile.text dex : Dex.Textstore.t);
  make ~indexed ~load_mode:None ~keys:(Option.get (key_table dex)) dex
    (Array.init n_categories (fun _ -> Parallel.Once.make ()))

(** All seven categories in packed form, building any not yet built — the
    snapshot subsystem's save-side view of the index. *)
let export_packed t = Array.init n_categories (ensure_category t)

(* An engine whose postings were installed wholesale (a snapshot load or a
   delta patch) rather than built from the arena.  Queries behave exactly
   as in indexed mode; {!index_mode} reports [mode]. *)
let install ~mode ~keys dex tables =
  if Array.length tables <> n_categories then
    invalid_arg "Engine.create_packed: expected one table per category";
  make ~indexed:true ~load_mode:(Some mode) ~keys dex
    (Array.map Parallel.Once.filled tables)

let create_packed dex tables =
  match key_table dex with
  | Some keys -> Ok (install ~mode:"snapshot" ~keys dex tables)
  | None -> Error "symbol table holds a string twice"

let program t = t.dex.Dex.Dexfile.program
let dexfile t = t.dex

(** Stamp the engine with the content hash of the rule set about to drive
    its searches.  An engine reused under a {e different} rule set gets its
    query cache flushed — cached search results are query-keyed and so
    rule-set-independent, but flushing guarantees no state computed under
    one rule set is ever consulted under another (and keeps the cache-rate
    statistics honest across [--rules] switches on a shared engine). *)
let note_ruleset t hash =
  let rec loop () =
    match Atomic.get t.ruleset with
    | None ->
      if Atomic.compare_and_set t.ruleset None (Some hash) then `First
      else loop ()
    | Some prev when prev = hash -> `Same
    | Some _ as prev ->
      if Atomic.compare_and_set t.ruleset prev (Some hash) then begin
        Cache.flush t.cache;
        `Changed
      end
      else loop ()
  in
  loop ()

let ruleset_stamp t = Atomic.get t.ruleset

(* ------------------------------------------------------------------ *)
(* Delta patch                                                         *)

(* One category of a delta engine: [old]'s postings carried through
   [slot_map], merged key by key with the postings of the slot ranges
   [dex] rendered ([fresh]) exactly as a build would index them, and
   re-encoded.  [run] is scratch space for one key's slots.  A carried run
   is ascending because the old->new slot map is monotone whenever both
   builds lay classes out in the same relative order; a run that is not
   (an old build in multidex partition order) is sorted before the fresh
   slots are merged in.  Fresh slots never collide with carried ones: they
   belong to re-rendered classes, which no old slot maps to.  Also returns
   the carried and rebuilt posting counts. *)
let patch_category ~slot_map ~fresh ~run dex c (old : Packed.t) =
  let fresh_posts = ref [] in
  List.iter
    (fun (lo, hi) ->
       iter_postings dex c ~lo ~hi (fun k ns ->
           fresh_posts := (k, ns) :: !fresh_posts))
    fresh;
  (* by key, then slot *)
  let fp = Array.of_list !fresh_posts in
  Array.sort compare fp;
  let nf = Array.length fp and nko = Packed.n_keys old in
  let fresh_key i = if i < nf then fst fp.(i) else max_int in
  let keys = Array.make (nko + nf) 0
  and offsets = Array.make (nko + nf + 1) 0 in
  let buf = Buffer.create (Bvec.length old.Packed.runs + (4 * nf) + 16) in
  let nk = ref 0 and carried = ref 0 in
  let ko = ref 0 and fi = ref 0 in
  while !ko < nko || !fi < nf do
    let kold = if !ko < nko then Ivec.get old.Packed.keys !ko else max_int in
    let k = if kold <= fresh_key !fi then kold else fresh_key !fi in
    let n = ref 0 and sorted = ref true in
    if kold = k then begin
      (* carry the run in place: map each old slot, drop the dead ones *)
      let m = ref 0 in
      Packed.iter_key old !ko (fun os ->
          Bigarray.Array1.set run !m os;
          incr m);
      let prev = ref (-1) in
      for i = 0 to !m - 1 do
        let ns = slot_map.(Bigarray.Array1.unsafe_get run i) in
        if ns >= 0 then begin
          if ns < !prev then sorted := false;
          Bigarray.Array1.unsafe_set run !n ns;
          prev := ns;
          incr n
        end
      done;
      incr ko
    end;
    if not !sorted then begin
      let a = Array.init !n (Ivec.get run) in
      Array.sort compare a;
      Array.iteri (Ivec.set run) a
    end;
    carried := !carried + !n;
    (* merge this key's fresh slots in from the back *)
    let f0 = !fi in
    while fresh_key !fi = k do incr fi done;
    let i = ref (!n - 1) and w = ref (!n + !fi - f0 - 1) in
    for j = !fi - 1 downto f0 do
      let s = snd fp.(j) in
      while !i >= 0 && Ivec.get run !i > s do
        Ivec.set run !w (Ivec.get run !i);
        decr i;
        decr w
      done;
      Ivec.set run !w s;
      decr w
    done;
    n := !n + !fi - f0;
    if !n > 0 then begin
      keys.(!nk) <- k;
      offsets.(!nk) <- Buffer.length buf;
      Postcodec.encode buf run ~lo:0 ~hi:!n;
      incr nk
    end
  done;
  offsets.(!nk) <- Buffer.length buf;
  ( { Packed.keys = Ivec.of_array (Array.sub keys 0 !nk);
      offsets = Ivec.of_array (Array.sub offsets 0 (!nk + 1));
      runs = Bvec.of_string (Buffer.contents buf) },
    !carried, nf )

let patch old dex ~slot_map =
  let fresh = dex.Dex.Dexfile.rendered.Dex.Writer.ranges in
  (* a key's run holds at most every old slot before the carry, and at
     most every new slot after the merge *)
  let run =
    Ivec.create
      (max (Array.length slot_map) (Dex.Arena.length dex.Dex.Dexfile.arena))
  in
  let carried = ref 0 and rebuilt = ref 0 in
  let tables =
    Array.mapi
      (fun c p ->
         let p, nc, nr = patch_category ~slot_map ~fresh ~run dex c p in
         carried := !carried + nc;
         rebuilt := !rebuilt + nr;
         p)
      (export_packed old)
  in
  let t = install ~mode:"delta" ~keys:(Option.get (key_table dex)) dex tables in
  (match ruleset_stamp old with
   | Some h -> ignore (note_ruleset t h)
   | None -> ());
  (t, !carried, !rebuilt)

(* ------------------------------------------------------------------ *)
(* Scan mode                                                           *)

(* Instruction lines look like "    0004: invoke-virtual {...}, ..."; the
   opcode follows the first ": ".  Reads the blob, materialises nothing. *)
let has_opcode store i ~prefixes =
  match Dex.Textstore.index_char store i ':' with
  | -1 -> false
  | colon ->
    let rest_start = colon + 2 in
    List.exists
      (fun p -> Dex.Textstore.starts_with store i ~pos:rest_start ~prefix:p)
      prefixes

(* One skip-search pass over the text blob finds the candidate lines
   (allocating nothing); the rare matches pay the opcode-prefix check and
   hit materialization.  A matched line is located from its class's line
   layout, each class walked once a scan, not from the arena, which has
   no slot for most instruction lines; a header line is no hit.  So the
   scan engine, the indexed engine's test oracle, checks the arena's
   owner and statement columns rather than reading them. *)
let scan t ~prefixes ~pat ~filter =
  let store = Dex.Dexfile.text t.dex in
  let locate = Dex.Dexfile.locator t.dex in
  let acc = ref [] in
  Dex.Textstore.iter_matches store ~pat (fun i ->
      if prefixes = [] || has_opcode store i ~prefixes then
        match locate i with
        | Some (owner, owner_cls, s) ->
          let h = { line_no = i; owner; owner_cls; stmt_idx = Some s } in
          if filter h then acc := h :: !acc
        | None -> ());
  List.rev !acc

(* Operand patterns are the symbol's text behind a ", " separator.  The
   rendering is interned once per distinct symbol via [Sym.memo] — the old
   per-query [", " ^ Sym.to_string s] re-allocated the pattern under every
   cache miss, which the scan path (and the residual scans of snapshot
   engines) pays for on each uncached query. *)
let comma_pat =
  Sym.memo ~hash:Sym.hash ~equal:Sym.equal (fun s -> ", " ^ Sym.to_string s)

let scan_uncached t (q : Query.t) =
  match q with
  | Invocation s ->
    scan t ~prefixes:[ "invoke-" ] ~pat:(Sym.to_string (comma_pat s))
      ~filter:(fun _ -> true)
  | New_instance s ->
    scan t ~prefixes:[ "new-instance" ] ~pat:(Sym.to_string (comma_pat s))
      ~filter:(fun _ -> true)
  | Const_class s ->
    scan t ~prefixes:[ "const-class" ] ~pat:(Sym.to_string (comma_pat s))
      ~filter:(fun _ -> true)
  | Const_string s ->
    (* the payload is already the quoted literal *)
    scan t ~prefixes:[ "const-string" ] ~pat:(Sym.to_string s)
      ~filter:(fun _ -> true)
  | Field_access s ->
    scan t ~prefixes:[ "iget"; "iput"; "sget"; "sput" ]
      ~pat:(Sym.to_string (comma_pat s)) ~filter:(fun _ -> true)
  | Static_field_access s ->
    scan t ~prefixes:[ "sget"; "sput" ] ~pat:(Sym.to_string (comma_pat s))
      ~filter:(fun _ -> true)
  | Class_use s ->
    let cls = Sym.to_string s in
    let subject = Dex.Descriptor.class_of_desc cls in
    scan t ~prefixes:[] ~pat:cls
      ~filter:(fun h -> not (String.equal h.owner_cls subject))
  | Raw pat -> scan t ~prefixes:[] ~pat ~filter:(fun _ -> true)

(* ------------------------------------------------------------------ *)
(* Indexed mode                                                        *)

let query_category : Query.t -> int option = function
  | Invocation _ -> Some cat_invocations
  | New_instance _ -> Some cat_new_instances
  | Const_class _ -> Some cat_const_classes
  | Const_string _ -> Some cat_const_strings
  | Field_access _ -> Some cat_field_ops
  | Static_field_access _ -> Some cat_static_field_ops
  | Class_use _ -> Some cat_class_tokens
  | Raw _ -> None  (* free-form searches always scan *)

(* Hits are materialised per returned slot — the postings themselves hold
   only ints. *)
let hit_of_slot t slot =
  let a : Dex.Arena.t = t.dex.Dex.Dexfile.arena in
  let line_no = Ivec.get a.line_idx slot in
  let oid = Ivec.get a.owner_id slot in
  { line_no;
    owner = Dex.Arena.Owners.meth a.owners oid;
    owner_cls = Dex.Arena.Owners.cls a.owners oid;
    stmt_idx =
      (let s = Ivec.get a.stmt_idx slot in if s < 0 then None else Some s) }

let hits_of_sym t (p : postings) sym =
  match Keys.find_opt t.keys sym with
  | None -> []
  | Some l ->
    (match Ivec.find_sorted p.Packed.keys l with
     | -1 -> []
     | k ->
       let acc = ref [] in
       Packed.iter_key p k (fun slot -> acc := hit_of_slot t slot :: !acc);
       List.rev !acc)

let indexed_lookup t c (q : Query.t) =
  let p = ensure_category t c in
  match q with
  | Invocation s | New_instance s | Const_class s | Const_string s
  | Field_access s | Static_field_access s -> hits_of_sym t p s
  | Class_use s ->
    let subject = Dex.Descriptor.class_of_desc (Sym.to_string s) in
    List.filter
      (fun h -> not (String.equal h.owner_cls subject))
      (hits_of_sym t p s)
  | Raw _ -> assert false  (* query_category returned None *)

let run_uncached t q =
  if not t.indexed then scan_uncached t q
  else
    match query_category q with
    | Some c -> indexed_lookup t c q
    | None -> scan_uncached t q

(** Execute a query, consulting the query cache first. *)
let run t q = Cache.find_or_add t.cache q (fun () -> run_uncached t q)

(* ------------------------------------------------------------------ *)
(* Introspection                                                       *)

let index_mode t =
  if not t.indexed then "scan" else Option.value t.load_mode ~default:"lazy"

let built_categories t =
  Array.fold_left
    (fun n cell -> if Parallel.Once.peek cell <> None then n + 1 else n)
    0 t.tables

(* Bytes held by the postings built so far (mapped or heap-side). *)
let postings_footprint t =
  Array.fold_left
    (fun n cell ->
       match Parallel.Once.peek cell with
       | None -> n
       | Some p -> n + Packed.bytes p)
    0 t.tables

let index_build_timings t =
  let timings = ref [] in
  for c = n_categories - 1 downto 0 do
    if Parallel.Once.peek t.tables.(c) <> None then
      timings := (category_name c, t.build_us.(c)) :: !timings
  done;
  !timings

let local_counts = Cache.local_counts
let category_timings t = Cache.category_timings t.cache
