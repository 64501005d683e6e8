module Engine = Bytesearch.Engine
module Packed = Engine.Packed
module Postcodec = Bytesearch.Postcodec
module Classmap = Dex.Classmap

let ( let* ) = Result.bind

(* Section ids.  The dexfile's layout is stored as it is: the arena
   columns (which say which lines are instructions, and of what owner and
   statement) and the class map.  The line texts are not stored: a loaded
   dexfile renders them from the program's IR on first read.  Category
   [c]'s postings are its {!Packed.t} verbatim: keys, byte offsets, and
   the Postcodec-coded runs. *)
let sec_meta = 1
let sec_sym_offsets = 2
let sec_sym_blob = 3
let sec_owner_offsets = 9
let sec_owner_blob = 10
let sec_cls_offsets = 11
let sec_cls_blob = 12
let sec_line_idx = 13
let sec_stmt_idx = 14
let sec_owner_id = 15
let sec_cat = 16
let sec_sym = 17
(* optional: the detection-rule-set content hash the snapshot was saved
   under (absent in older files) *)
let sec_ruleset = 18
let sec_keys c = 20 + (3 * c)
let sec_offsets c = 21 + (3 * c)
let sec_runs c = 22 + (3 * c)
let n_categories = 7

(* The per-class map — names, line/slot ranges and IR hashes — that the
   delta path diffs a new build against and the text pass walks, present
   in every file with lines; and the optional persisted per-sink analysis
   results the driver's replay path consults.  Ids sit above the postings
   range [20, 20 + 3*7). *)
let sec_cm_name_offsets = 41
let sec_cm_name_blob = 42
let sec_cm_ranges = 43
let sec_cm_hashes = 44
let sec_results_offsets = 45
let sec_results_blob = 46

let m_save_files = Obs.Metrics.counter "store.save.files"
let m_save_bytes = Obs.Metrics.counter "store.save.bytes"
let m_load_files = Obs.Metrics.counter "store.load.files"
let m_load_bytes = Obs.Metrics.counter "store.load.bytes_mapped"
let m_load_prefaulted = Obs.Metrics.counter "store.load.prefaulted"
let m_delta_loads = Obs.Metrics.counter "store.delta.loads"
let m_delta_reused = Obs.Metrics.counter "store.delta.classes_reused"
let m_delta_rendered = Obs.Metrics.counter "store.delta.classes_rendered"

let default_path ~dir ~app_id =
  let sane =
    String.map
      (fun ch ->
         match ch with
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '.' | '_' | '-' -> ch
         | _ -> '_')
      app_id
  in
  Filename.concat dir
    (Printf.sprintf "%s.v%d.bdix" sane Codec.format_version)

(* The load's validation loops read each mapped column element once:
   through the bigarray accessor, bounds-checked and compiled inline,
   rather than a call into [Ivec] per element. *)
let get (v : Ivec.t) i = Bigarray.Array1.get v i

(* -- String arrays as (offsets, blob) section pairs ------------------- *)

(* The strings [stored] holds as it was mapped — [Ivec.length offsets - 1]
   of them, [offsets] running from 0 to the blob's length — then [a]'s.
   The offsets are the running byte totals, from 0: computed as they are
   written, never held. *)
let no_offsets = Ivec.make 1 0
let no_blob = Bvec.create 0

let string_sections ?(stored = (no_offsets, no_blob)) ~off_id ~blob_id
    (a : string array) =
  let offsets, blob = stored in
  let base = Bvec.length blob in
  let len = Array.fold_left (fun n str -> n + String.length str) base a in
  [ Codec.section ~id:off_id
      ~len:(8 * (Ivec.length offsets + Array.length a))
      (fun s ->
         Codec.put_ivec s offsets;
         ignore
           (Array.fold_left
              (fun t str ->
                 let t = t + String.length str in
                 Codec.put_int s t;
                 t)
              base a));
    Codec.section ~id:blob_id ~len (fun s ->
        Codec.put_bvec s blob;
        Array.iter (Codec.put_string s) a) ]

(* A string array's two sections, mapped and checked: [count + 1] offsets
   ascending from 0 to the blob's length. *)
let map_strings r ~off_id ~blob_id ~count ~what =
  let* offs = Codec.map_ivec r ~id:off_id in
  let* blob = Codec.map_bytes r ~id:blob_id in
  if Ivec.length offs <> count + 1 then
    Error (Codec.Corrupt (Printf.sprintf "%s: offsets length mismatch" what))
  else if count >= 0 && Ivec.get offs 0 <> 0 then
    Error (Codec.Corrupt (Printf.sprintf "%s: offsets do not start at 0" what))
  else begin
    let ok = ref true in
    for i = 0 to count - 1 do
      if get offs (i + 1) < get offs i then ok := false
    done;
    if (not !ok) || Ivec.get offs count <> Bvec.length blob then
      Error
        (Codec.Corrupt
           (Printf.sprintf "%s: offsets inconsistent with blob" what))
    else Ok (offs, blob)
  end

(* The strings of a pair whose count is not in the meta record (the class
   names, the results): the offsets section gives it. *)
let load_strings r ~off_id ~blob_id ~what =
  let* offs = Codec.map_ivec r ~id:off_id in
  let count = Ivec.length offs - 1 in
  if count < 0 then
    Error (Codec.Corrupt (Printf.sprintf "%s: empty offsets" what))
  else
    let* offs, blob = map_strings r ~off_id ~blob_id ~count ~what in
    Ok
      (Array.init count (fun i ->
           let lo = get offs i in
           Bvec.sub_string blob lo (get offs (i + 1) - lo)))

(* -- The owner table ---------------------------------------------------- *)

(* A loaded (or delta-extended) table's stored text is copied as it was
   mapped; only the entries decoded from the start — a cold build's, a
   delta's re-rendered owners — are rendered. *)
let owner_sections (owners : Dex.Arena.Owners.t) =
  let module O = Dex.Arena.Owners in
  let st = O.stored owners and k = O.n_stored owners in
  let fresh f = Array.init (O.length owners - k) (fun j -> f (k + j)) in
  string_sections ~stored:(st.O.sig_offsets, st.O.sigs)
    ~off_id:sec_owner_offsets ~blob_id:sec_owner_blob
    (fresh (fun i -> Ir.Jsig.meth_to_string (O.meth owners i)))
  @ string_sections ~stored:(st.O.cls_offsets, st.O.classes)
      ~off_id:sec_cls_offsets ~blob_id:sec_cls_blob
      (fresh (O.cls owners))

(* The table left in its mapped sections: [Owners.of_stored] checks the
   offsets and every signature, allocating nothing per entry. *)
let load_owners r ~count =
  let* sig_offsets = Codec.map_ivec r ~id:sec_owner_offsets in
  let* sigs = Codec.map_bytes r ~id:sec_owner_blob in
  let* cls_offsets = Codec.map_ivec r ~id:sec_cls_offsets in
  let* classes = Codec.map_bytes r ~id:sec_cls_blob in
  if Ivec.length sig_offsets <> count + 1 then
    Error (Codec.Corrupt "owners: offsets length mismatch")
  else
    Result.map_error
      (fun m -> Codec.Corrupt m)
      (Dex.Arena.Owners.of_stored
         { Dex.Arena.Owners.sig_offsets; sigs; cls_offsets; classes })

(* -- Per-class map sections ------------------------------------------- *)

let classmap_sections (cm : Classmap.t) =
  let n = Classmap.length cm in
  if n = 0 then []
  else
    string_sections ~off_id:sec_cm_name_offsets ~blob_id:sec_cm_name_blob
      cm.Classmap.names
    @ [ Codec.section ~id:sec_cm_ranges ~len:(32 * n) (fun s ->
            for i = 0 to n - 1 do
              Codec.put_int s cm.Classmap.line_lo.(i);
              Codec.put_int s cm.Classmap.line_hi.(i);
              Codec.put_int s cm.Classmap.slot_lo.(i);
              Codec.put_int s cm.Classmap.slot_hi.(i)
            done);
        Codec.section ~id:sec_cm_hashes ~len:(8 * n) (fun s ->
            Array.iter (Codec.put_int64_le s) cm.Classmap.ir_hash) ]

(* The entries tile the lines and the slots exactly, in order — the
   dexfile's text pass renders them one after another — and each entry's
   slots are instruction lines of its own line range; [line_idx] is
   already known to ascend strictly.  A file with lines carries a map. *)
let load_classmap r ~n_lines ~(line_idx : Ivec.t) =
  let n_slots = Ivec.length line_idx in
  if not (Codec.mem r ~id:sec_cm_name_offsets) then
    if n_lines = 0 then Ok Classmap.empty
    else Error (Codec.Corrupt "lines but no class map")
  else
    let* names =
      load_strings r ~off_id:sec_cm_name_offsets
        ~blob_id:sec_cm_name_blob ~what:"classmap names"
    in
    let n = Array.length names in
    let* ranges = Codec.map_ivec r ~id:sec_cm_ranges in
    let* hashes = Codec.read_blob r ~id:sec_cm_hashes in
    if Ivec.length ranges <> 4 * n then
      Error (Codec.Corrupt "classmap: ranges length mismatch")
    else if String.length hashes <> 8 * n then
      Error (Codec.Corrupt "classmap: hashes length mismatch")
    else begin
      let line_lo = Array.make n 0 and line_hi = Array.make n 0 in
      let slot_lo = Array.make n 0 and slot_hi = Array.make n 0 in
      let ok = ref true in
      let lpos = ref 0 and spos = ref 0 in
      for i = 0 to n - 1 do
        let llo = get ranges ((4 * i) + 0) in
        let lhi = get ranges ((4 * i) + 1) in
        let slo = get ranges ((4 * i) + 2) in
        let shi = get ranges ((4 * i) + 3) in
        if llo <> !lpos || lhi < llo || lhi > n_lines then ok := false;
        if slo <> !spos || shi < slo || shi > n_slots then ok := false
        else if
          slo < shi
          && (get line_idx slo < llo || get line_idx (shi - 1) >= lhi)
        then ok := false;
        lpos := lhi;
        spos := shi;
        line_lo.(i) <- llo;
        line_hi.(i) <- lhi;
        slot_lo.(i) <- slo;
        slot_hi.(i) <- shi
      done;
      if not (!ok && !lpos = n_lines && !spos = n_slots) then
        Error (Codec.Corrupt "classmap: ranges do not tile the lines and slots")
      else
        let hb = Bytes.unsafe_of_string hashes in
        Ok
          (Classmap.v ~names ~line_lo ~line_hi ~slot_lo ~slot_hi
             ~ir_hash:(Array.init n (fun i -> Bytes.get_int64_le hb (8 * i))))
    end

(* -- Save ------------------------------------------------------------- *)

let save ?ruleset_hash ?(results = [||]) ~path engine =
  let span0 = Obs.Span.start () in
  (* default to the stamp already on the engine, so save -> load -> save
     stays byte-identical for stamped files *)
  let ruleset_hash =
    match ruleset_hash with
    | Some _ as h -> h
    | None -> Engine.ruleset_stamp engine
  in
  let dex = Engine.dexfile engine in
  let packed = Engine.export_packed engine in
  let arena = dex.Dex.Dexfile.arena in
  (* the arena's own table, indexed by the local ids the file holds *)
  let syms = Array.map Sym.to_string arena.Dex.Arena.syms in
  let sections =
    List.concat
      [ [ Codec.ints ~id:sec_meta
            [| Dex.Dexfile.line_count dex; Dex.Arena.length arena;
               Dex.Arena.Owners.length arena.Dex.Arena.owners;
               Array.length syms |] ];
        (match ruleset_hash with
         | Some h -> [ Codec.ints ~id:sec_ruleset [| h |] ]
         | None -> []);
        string_sections ~off_id:sec_sym_offsets ~blob_id:sec_sym_blob syms;
        owner_sections arena.Dex.Arena.owners;
        [ Codec.ivec ~id:sec_line_idx arena.Dex.Arena.line_idx;
          Codec.ivec ~id:sec_stmt_idx arena.Dex.Arena.stmt_idx;
          Codec.ivec ~id:sec_owner_id arena.Dex.Arena.owner_id;
          Codec.ivec ~id:sec_cat arena.Dex.Arena.cat;
          Codec.ivec ~id:sec_sym arena.Dex.Arena.sym ];
        classmap_sections (Dex.Dexfile.classmap dex);
        (if Array.length results > 0 then
           string_sections ~off_id:sec_results_offsets
             ~blob_id:sec_results_blob results
         else []);
        List.concat
          (List.mapi
             (fun c (p : Packed.t) ->
                [ Codec.ivec ~id:(sec_keys c) p.Packed.keys;
                  Codec.ivec ~id:(sec_offsets c) p.Packed.offsets;
                  Codec.bvec ~id:(sec_runs c) p.Packed.runs ])
             (Array.to_list packed)) ]
  in
  let bytes = Codec.write_file ~path sections in
  Obs.Metrics.incr m_save_files;
  Obs.Metrics.add m_save_bytes bytes;
  Obs.Span.emit ~cat:"store" ~name:"store:save"
    ~attrs:
      [ ("path", Obs.Span.Str path); ("bytes", Obs.Span.Int bytes);
        ("syms", Obs.Span.Int (Array.length syms)) ]
    span0;
  bytes

(* -- Parse ------------------------------------------------------------ *)

(* Validate one category against the snapshot's own symbol and slot
   counts: keys (local ids of the file's symbol table) strictly ascending
   and in range, byte offsets partitioning the coded runs exactly, and
   every run well-formed with slots in range.  Every byte the engine's unchecked
   cursors will later read is checked here — and the walk doubles as a
   sequential touch of the run bytes, so it prefaults the postings as a
   side effect. *)
let check_packed ~n_syms ~n_slots c ~keys ~offsets ~(runs : Bvec.t) =
  let nk = Ivec.length keys in
  let bad what =
    Error (Codec.Corrupt (Printf.sprintf "postings %d: %s" c what))
  in
  if Ivec.length offsets <> nk + 1 then bad "offsets length"
  else if nk > 0 && Ivec.get offsets 0 <> 0 then bad "offsets start"
  else if Ivec.get offsets nk <> Bvec.length runs then bad "offsets end"
  else begin
    let ok = ref true in
    for k = 0 to nk - 1 do
      let key = get keys k in
      if key < 0 || key >= n_syms then ok := false;
      if k > 0 && get keys (k - 1) >= key then ok := false;
      if get offsets (k + 1) < get offsets k then ok := false
    done;
    if not !ok then bad "keys/offsets not ascending or out of range"
    else begin
      let rec check_runs k =
        if k = nk then Ok ()
        else
          match
            Postcodec.validate runs ~pos:(Ivec.get offsets k)
              ~limit:(Ivec.get offsets (k + 1)) ~max_slot:(n_slots - 1)
          with
          | Ok _ -> check_runs (k + 1)
          | Error m -> bad (Printf.sprintf "run %d: %s" k m)
      in
      check_runs 0
    end
  end

let rec result_each f = function
  | [] -> Ok ()
  | x :: tl ->
    let* () = f x in
    let* r = result_each f tl in
    Ok r

(* Everything a snapshot file holds, mapped and structurally validated but
   not yet interned or assembled into an engine.  The sym column and the
   postings keys hold local ids of the file's symbol table, which the
   engine keeps as they are. *)
type parsed = {
  p_n_lines : int;
  p_sym_offsets : Ivec.t;
  p_sym_blob : Bvec.t;
  p_owners : Dex.Arena.Owners.t;
  p_line_idx : Ivec.t;
  p_stmt_idx : Ivec.t;
  p_owner_id : Ivec.t;
  p_cat : Ivec.t;
  p_sym : Ivec.t;
  p_packed : Packed.t array;
  p_ruleset : int option;
  p_classmap : Classmap.t;
}

let parse r =
  let* meta = Codec.map_ivec r ~id:sec_meta in
  if Ivec.length meta <> 4 then Error (Codec.Corrupt "meta length")
  else begin
    let n_lines = Ivec.get meta 0 in
    let n_slots = Ivec.get meta 1 in
    let n_owners = Ivec.get meta 2 in
    let n_syms = Ivec.get meta 3 in
    if n_lines < 0 || n_slots < 0 || n_owners < 0 || n_syms < 0 then
      Error (Codec.Corrupt "negative count in meta")
    else
      let* sym_offsets, sym_blob =
        map_strings r ~off_id:sec_sym_offsets ~blob_id:sec_sym_blob
          ~count:n_syms ~what:"symbol table"
      in
      let* owners = load_owners r ~count:n_owners in
      let* line_idx = Codec.map_ivec r ~id:sec_line_idx in
      let* stmt_idx = Codec.map_ivec r ~id:sec_stmt_idx in
      let* owner_id = Codec.map_ivec r ~id:sec_owner_id in
      let* cat = Codec.map_ivec r ~id:sec_cat in
      let* sym = Codec.map_ivec r ~id:sec_sym in
      let* () =
        result_each
          (fun (v, what) ->
             if Ivec.length v = n_slots then Ok ()
             else
               Error
                 (Codec.Corrupt
                    (Printf.sprintf "arena %s: length mismatch" what)))
          [ (line_idx, "line_idx"); (stmt_idx, "stmt_idx");
            (owner_id, "owner_id"); (cat, "cat"); (sym, "sym") ]
      in
      let* () =
        (* range-check the arena before anything dereferences it; slots
           are in line order, which the text scan and the class map rely
           on *)
        let ok = ref true in
        for i = 0 to n_slots - 1 do
          let li = get line_idx i in
          let oi = get owner_id i in
          let c = get cat i in
          let s = get sym i in
          if li < 0 || li >= n_lines then ok := false;
          if i > 0 && li <= get line_idx (i - 1) then ok := false;
          if oi < 0 || oi >= n_owners then ok := false;
          if c < -1 || c >= n_categories - 1 then ok := false;
          if s < -1 || s >= n_syms then ok := false
        done;
        if !ok then Ok ()
        else Error (Codec.Corrupt "arena column value out of range")
      in
      let* packed_snap =
        let rec go c acc =
          if c = n_categories then Ok (Array.of_list (List.rev acc))
          else
            let* keys = Codec.map_ivec r ~id:(sec_keys c) in
            let* offsets = Codec.map_ivec r ~id:(sec_offsets c) in
            let* runs = Codec.map_bytes r ~id:(sec_runs c) in
            let* () = check_packed ~n_syms ~n_slots c ~keys ~offsets ~runs in
            go (c + 1) ({ Packed.keys; offsets; runs } :: acc)
        in
        go 0 []
      in
      let* ruleset =
        if not (Codec.mem r ~id:sec_ruleset) then Ok None
        else
          let* v = Codec.map_ivec r ~id:sec_ruleset in
          if Ivec.length v <> 1 then
            Error (Codec.Corrupt "ruleset section length")
          else Ok (Some (Ivec.get v 0))
      in
      let* classmap = load_classmap r ~n_lines ~line_idx in
      Ok
        { p_n_lines = n_lines; p_sym_offsets = sym_offsets;
          p_sym_blob = sym_blob; p_owners = owners; p_line_idx = line_idx;
          p_stmt_idx = stmt_idx; p_owner_id = owner_id; p_cat = cat;
          p_sym = sym; p_packed = packed_snap; p_ruleset = ruleset;
          p_classmap = classmap }
  end

(* -- Load ------------------------------------------------------------- *)

(* Touch the small always-hot mapped sections — every arena column plus the
   postings directory (keys and offsets) of each category — so the first
   queries fault nothing in on the planner path.  A few pages per section;
   cheap enough to do unconditionally on load. *)
let prefault_hot ~(arena : Dex.Arena.t) ~(packed : Packed.t array) =
  let acc = ref 0 in
  let iv v = acc := !acc lxor Ivec.prefault v in
  iv arena.Dex.Arena.line_idx;
  iv arena.Dex.Arena.stmt_idx;
  iv arena.Dex.Arena.owner_id;
  iv arena.Dex.Arena.cat;
  iv arena.Dex.Arena.sym;
  Array.iter
    (fun (p : Packed.t) ->
       iv p.Packed.keys;
       iv p.Packed.offsets)
    packed;
  Sys.opaque_identity !acc

(* Touch every page of every mapped section up front — the hot sections
   plus the postings bodies — so no query faults anything in.  OCaml's
   Unix has no madvise; a sequential one-touch-per-page walk gets the same
   readahead behaviour.  Runs after validation (which already walked the
   coded runs), so the engine is usable either way; the knob only moves
   page-fault cost from first queries to load. *)
let prefault_engine ~(arena : Dex.Arena.t) ~(packed : Packed.t array) =
  let acc = ref (prefault_hot ~arena ~packed) in
  Array.iter
    (fun (p : Packed.t) -> acc := !acc lxor Bvec.prefault p.Packed.runs)
    packed;
  Sys.opaque_identity !acc

let load ?(prefault = false) ~path program =
  let span0 = Obs.Span.start () in
  let* r = Codec.read_file ~path in
  let finish res =
    Codec.close r;
    (match res with
     | Ok engine ->
       Obs.Metrics.incr m_load_files;
       Obs.Metrics.add m_load_bytes (Codec.size r);
       Obs.Span.emit ~cat:"store" ~name:"store:load"
         ~attrs:
           [ ("path", Obs.Span.Str path);
             ("bytes", Obs.Span.Int (Codec.size r));
             ("prefault", Obs.Span.Bool prefault);
             ("mode", Obs.Span.Str (Engine.index_mode engine)) ]
         span0
     | Error _ -> ());
    res
  in
  finish
    (let* p = parse r in
     (* the file's symbol table, interned in one batch straight from the
        mapped section, is the arena's: the sym column and the postings
        keys index it as they are *)
     let arena =
       { Dex.Arena.line_idx = p.p_line_idx; stmt_idx = p.p_stmt_idx;
         owner_id = p.p_owner_id; cat = p.p_cat; sym = p.p_sym;
         syms = Sym.intern_slices p.p_sym_blob p.p_sym_offsets;
         owners = p.p_owners }
     in
     (* the hot sections (arena columns + postings directories) are
        always prefaulted — they are small and every query planner pass
        touches them; [prefault] extends the walk to the postings bodies *)
     if prefault then begin
       Obs.Metrics.incr m_load_prefaulted;
       ignore (prefault_engine ~arena ~packed:p.p_packed)
     end
     else ignore (prefault_hot ~arena ~packed:p.p_packed);
     let dex =
       Dex.Dexfile.of_parts ~lines:p.p_n_lines ~classmap:p.p_classmap arena
         program
     in
     let* engine =
       Result.map_error
         (fun m -> Codec.Corrupt m)
         (Engine.create_packed dex p.p_packed)
     in
     (* carry the saved rule-set stamp onto the engine, so an analysis
        under a different rule set sees `Changed` and warns instead of
        silently trusting warm state *)
     (match p.p_ruleset with
      | Some h -> ignore (Engine.note_ruleset engine h)
      | None -> ());
     Ok engine)

(* -- Persisted analysis results --------------------------------------- *)

let load_results ~path =
  let* r = Codec.read_file ~path in
  let finish res =
    Codec.close r;
    res
  in
  finish
    (if not (Codec.mem r ~id:sec_results_offsets) then Ok [||]
     else
       load_strings r ~off_id:sec_results_offsets
         ~blob_id:sec_results_blob ~what:"results")

(* -- Delta ------------------------------------------------------------ *)

type delta_report = {
  d_total : int;
  d_unchanged : int;
  d_changed : int;
  d_added : int;
  d_removed : int;
  d_lines_reused : int;
  d_lines_rendered : int;
  d_carried_postings : int;
  d_rebuilt_postings : int;
}

let delta_report_to_string d =
  Printf.sprintf
    "classes %d (unchanged %d, changed %d, added %d, removed %d), lines \
     reused %d / rendered %d, postings carried %d / rebuilt %d"
    d.d_total d.d_unchanged d.d_changed d.d_added d.d_removed
    d.d_lines_reused d.d_lines_rendered d.d_carried_postings
    d.d_rebuilt_postings

let unchanged d = d.d_unchanged = d.d_total && d.d_removed = 0

(* How delta assembles the new build, in new line order.  A [Copy]
   appends old lines [llo, lhi) and old slots [slo, shi), the slots landing
   at [sbase]: one reused class, or a run of reused classes that were
   adjacent in the old build too, so an update that changes one class
   splices in a handful of block copies.  A [Render] renders a changed or
   added class. *)
type move =
  | Copy of { llo : int; lhi : int; slo : int; shi : int; sbase : int }
  | Render of Ir.Jclass.t

(* Patch a resident engine into an engine for [program].  This is the
   maintained-index scenario — an app-store service holding the previous
   version's index in memory, or a warm start that just loaded a
   snapshot — and the core of the delta path: it works purely on live
   structures, so there is no file parse and no symbol interning but the
   re-indexed classes'.  When the diff
   finds every class unchanged, in whatever order, the old engine already
   answers for [program] and is returned as it is.  Otherwise the new
   layout is written by a {!Dex.Writer} index pass, through the statement
   walk a cold render uses: unchanged classes' columns are copied from
   the old layout as blocks, changed and added classes indexed, and the
   old layout's symbol table extended with the symbols they add.  No text
   is read or written: the new dexfile renders its own from [program] if
   something reads it.  The old engine is left untouched. *)
let delta_of_engine old_engine program =
  let span0 = Obs.Span.start () in
  let dex_old = Engine.dexfile old_engine in
  let cm_old = Dex.Dexfile.classmap dex_old in
  if Classmap.length cm_old = 0 && Dex.Dexfile.line_count dex_old > 0 then
    Error
      (Codec.Corrupt
         "engine has no class map (pre-delta snapshot or warm placeholder)")
  else begin
    let oa = dex_old.Dex.Dexfile.arena in
    let classes = Array.of_list (Dex.Disasm.app_classes program) in
    let n_classes = Array.length classes in
    let cm_names = Array.make n_classes "" in
    let cm_line_lo = Array.make n_classes 0 in
    let cm_line_hi = Array.make n_classes 0 in
    let cm_slot_lo = Array.make n_classes 0 in
    let cm_slot_hi = Array.make n_classes 0 in
    let cm_ir = Array.make n_classes 0L in
    let n_unchanged = ref 0
    and n_changed = ref 0
    and n_added = ref 0 in
    let reused_lines = ref 0 and rendered_lines = ref 0 in
    let rendered_cls = Hashtbl.create 16 in
    (* plan: diff each class on its IR hash, lay out the new line and slot
       ranges, and fill the new classmap *)
    let moves = ref [] and lpos = ref 0 and spos = ref 0 in
    Array.iteri
      (fun ci (c : Ir.Jclass.t) ->
         let ih = Ir.Irhash.jclass c in
         let lbase = !lpos and sbase = !spos in
         (match Classmap.find cm_old c.Ir.Jclass.name with
          | Some oi when cm_old.Classmap.ir_hash.(oi) = ih ->
            incr n_unchanged;
            let llo = cm_old.Classmap.line_lo.(oi)
            and lhi = cm_old.Classmap.line_hi.(oi)
            and slo = cm_old.Classmap.slot_lo.(oi)
            and shi = cm_old.Classmap.slot_hi.(oi) in
            (moves :=
               match !moves with
               | Copy m :: rest when m.lhi = llo && m.shi = slo ->
                 Copy { m with lhi; shi } :: rest
               | ms -> Copy { llo; lhi; slo; shi; sbase } :: ms);
            lpos := lbase + (lhi - llo);
            spos := sbase + (shi - slo);
            reused_lines := !reused_lines + (lhi - llo)
          | found ->
            if Option.is_some found then incr n_changed else incr n_added;
            Hashtbl.replace rendered_cls c.Ir.Jclass.name ();
            moves := Render c :: !moves;
            let n_lines, n_slots = Dex.Disasm.size c in
            lpos := lbase + n_lines;
            spos := sbase + n_slots;
            rendered_lines := !rendered_lines + n_lines);
         cm_names.(ci) <- c.Ir.Jclass.name;
         cm_line_lo.(ci) <- lbase;
         cm_line_hi.(ci) <- !lpos;
         cm_slot_lo.(ci) <- sbase;
         cm_slot_hi.(ci) <- !spos;
         cm_ir.(ci) <- ih)
      classes;
    let n_removed = Classmap.length cm_old - !n_unchanged - !n_changed in
    let report ~carried ~rebuilt =
      { d_total = n_classes; d_unchanged = !n_unchanged;
        d_changed = !n_changed; d_added = !n_added; d_removed = n_removed;
        d_lines_reused = !reused_lines; d_lines_rendered = !rendered_lines;
        d_carried_postings = carried; d_rebuilt_postings = rebuilt }
    in
    if !n_unchanged = n_classes && n_removed = 0 then
      Ok (old_engine, report ~carried:0 ~rebuilt:0)
    else
    (* The old owner table is carried wholesale: copied slots keep their
       owner ids verbatim (no re-interning), and re-rendered classes reuse
       their old ids where the signature persists.  Owners of removed
       classes (or removed methods) linger as unreferenced entries; they
       are reclaimed by the next full save-from-cold.  A class's owners
       are adjacent, so the class test runs once per class, and only the
       re-rendered classes' owners are decoded. *)
    let w = Dex.Writer.index ~base:oa ~lines:!lpos ~slots:!spos () in
    let owners = oa.Dex.Arena.owners in
    let last_cls = ref None in
    for i = 0 to Dex.Arena.Owners.length owners - 1 do
      let rendered =
        match !last_cls with
        | Some (c, r) when Dex.Arena.Owners.cls_equal owners i c -> r
        | _ ->
          let c = Dex.Arena.Owners.cls owners i in
          let r = Hashtbl.mem rendered_cls c in
          last_cls := Some (c, r);
          r
      in
      if rendered then
        Dex.Writer.reuse_owner w (Dex.Arena.Owners.meth owners i) i
    done;
    let slot_map = Array.make (max 1 (Dex.Arena.length oa)) (-1) in
    List.iter
      (function
        | Copy { llo; lhi; slo; shi; sbase } ->
          Dex.Writer.copy w oa ~lines:(llo, lhi) ~slots:(slo, shi);
          for j = 0 to shi - slo - 1 do
            slot_map.(slo + j) <- sbase + j
          done
        | Render c -> Dex.Disasm.render w c)
      (List.rev !moves);
    let arena, rendered = Dex.Writer.finish_index w in
    let classmap =
      Classmap.v ~names:cm_names ~line_lo:cm_line_lo ~line_hi:cm_line_hi
        ~slot_lo:cm_slot_lo ~slot_hi:cm_slot_hi ~ir_hash:cm_ir
    in
    let dex =
      Dex.Dexfile.of_parts ~rendered ~lines:!lpos ~classmap arena program
    in
    (* postings: surviving old entries carried through the slot map, the
       rendered classes' entries built fresh; the patched engine keeps the
       old rule-set stamp, so an analysis under a different rule set sees
       `Changed` and warns instead of silently trusting warm state *)
    let engine, carried, rebuilt = Engine.patch old_engine dex ~slot_map in
    Obs.Metrics.incr m_delta_loads;
    Obs.Metrics.add m_delta_reused !n_unchanged;
    Obs.Metrics.add m_delta_rendered (!n_changed + !n_added);
    Obs.Span.emit ~cat:"store" ~name:"store:delta"
      ~attrs:
        [ ("classes", Obs.Span.Int n_classes);
          ("reused", Obs.Span.Int !n_unchanged);
          ("rendered", Obs.Span.Int (!n_changed + !n_added)) ]
      span0;
    Ok (engine, report ~carried ~rebuilt)
  end

(* The file-based entry, and every warm start's: load the old snapshot
   (full structural validation and the symbol table's interning happen
   there) and patch the resident engine it yields, which an
   unchanged program gets back as loaded.  One splice implementation
   serves both the warm start and the maintained-index flow. *)
let delta ~path program =
  let* old_engine = load ~path program in
  delta_of_engine old_engine program
