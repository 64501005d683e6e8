(** Persisted per-sink analysis results with content-hash invalidation.

    An entry is one sink call site's reachability and sink-argument fact,
    keyed by (sink spec, containing method, site) and stamped with its
    footprint: each app class the SSG slice touched, with its IR hash
    folded with a digest of the whole manifest ({!class_hash}).
    Verdicts are recomputed from the fact per rule, so a cached fact
    replays under a changed rule set.  An entry replays iff each footprint
    class has its recorded hash in the new build and manifest and no slot
    the build indexed in this process names it: a class the slice never
    visited can change the slice only by naming a footprint class, since
    every caller/writer the backward search found was visited.  The
    manifest is folded in whole because it decides which classes are
    entries, for the class-use search of a [<clinit>] too, which visits
    classes that no footprint holds: any change to it refuses every
    entry.  A delta indexes exactly its changed and added classes.
    [Partial] outcomes are never cached: budget exhaustion can be
    wall-clock dependent. *)

module Classmap = Dex.Classmap

type entry = {
  e_sink_msig : string;   (** [Jsig.meth_to_string] of the sink signature *)
  e_param_index : int;
  e_meth : string;        (** containing method, [Jsig.meth_to_string] *)
  e_site : int;
  e_reachable : bool;
  e_fact : Facts.t;
  e_footprint : (string * int64) list;
      (** app classes the SSG slice touched, with their {!class_hash}es *)
}

(* The manifest's digest: its package, then each component in order, its
   class, kind, exported flag and intent-filter actions prefixed with
   their count, so that the fold is unambiguous.  It is folded once per
   application to [classmap] and [manifest]. *)
let class_hash ~classmap ~(manifest : Manifest.App_manifest.t) =
  let digest =
    List.fold_left
      (fun h (c : Manifest.Component.t) ->
         List.fold_left Ir.Irhash.string h
           (c.cls :: Manifest.Component.kind_to_string c.kind
            :: string_of_bool c.exported
            :: string_of_int (List.length c.actions)
            :: c.actions))
      (Ir.Irhash.string Ir.Irhash.offset_basis manifest.package)
      manifest.components
    |> Printf.sprintf "%016Lx"
  in
  fun cls ->
    Option.map
      (fun h -> Ir.Irhash.string h digest)
      (Classmap.ir_hash_of classmap cls)

type t = {
  entries : entry list;
  by_key : (string, entry) Hashtbl.t;
}

let key ~sink_msig ~param_index ~meth ~site =
  Printf.sprintf "%s\x00%d\x00%s\x00%d" sink_msig param_index meth site

let build entries =
  let by_key = Hashtbl.create (max 16 (List.length entries)) in
  List.iter
    (fun e ->
       Hashtbl.replace by_key
         (key ~sink_msig:e.e_sink_msig ~param_index:e.e_param_index
            ~meth:e.e_meth ~site:e.e_site)
         e)
    entries;
  { entries; by_key }

let empty = build []
let entries t = t.entries
let length t = List.length t.entries

(* -- Wire format ------------------------------------------------------ *)

(* Length-prefixed fields in plain strings: ints as [<decimal>;], strings
   as [<len>;:<bytes>], class hashes as 16 lower-case hex digits.  Facts
   encode as a tagged recursive term with deterministic member order, so
   encode is injective on acyclic facts and a round-trip preserves
   structural equality (which is all [Detectors.classify_rule] inspects).
   The bytes are untrusted: every length and count is checked against the
   bytes left before anything is read or allocated for it, and an int
   that does not fit is refused, so malformed input is a [Decode]. *)

exception Not_cacheable
exception Decode of string

let add_int buf i =
  Buffer.add_string buf (string_of_int i);
  Buffer.add_char buf ';'

let add_str buf s =
  add_int buf (String.length s);
  Buffer.add_char buf ':';
  Buffer.add_string buf s

type cursor = { s : string; mutable pos : int }

let left cur = String.length cur.s - cur.pos

let take_char cur =
  if cur.pos >= String.length cur.s then raise (Decode "truncated");
  let c = cur.s.[cur.pos] in
  cur.pos <- cur.pos + 1;
  c

(* The digits accumulate negated, so that [min_int] parses and a digit
   that would pass [min_int] is caught before it wraps. *)
let take_int cur =
  let start = cur.pos in
  let overflow () = raise (Decode ("int overflow at " ^ string_of_int start)) in
  let neg = cur.pos < String.length cur.s && cur.s.[cur.pos] = '-' in
  if neg then cur.pos <- cur.pos + 1;
  let v = ref 0 in
  let digits = ref 0 in
  let continue = ref true in
  while !continue do
    match take_char cur with
    | '0' .. '9' as c ->
      let d = Char.code c - Char.code '0' in
      if !v < (min_int + d) / 10 then overflow ();
      v := (!v * 10) - d;
      incr digits
    | ';' -> continue := false
    | _ -> raise (Decode ("bad int at " ^ string_of_int start))
  done;
  if !digits = 0 then raise (Decode "empty int");
  if neg then !v else if !v = min_int then overflow () else - !v

(* A count of items that take at least one byte each. *)
let take_count cur =
  let n = take_int cur in
  if n < 0 || n > left cur then raise (Decode "bad count");
  n

let take_str cur =
  let n = take_count cur in
  if take_char cur <> ':' then raise (Decode "missing ':'");
  if n > left cur then raise (Decode "string overrun");
  let s = String.sub cur.s cur.pos n in
  cur.pos <- cur.pos + n;
  s

let take_hash cur =
  if left cur < 16 then raise (Decode "truncated class hash");
  let hex = String.sub cur.s cur.pos 16 in
  cur.pos <- cur.pos + 16;
  match Int64.of_string_opt ("0x" ^ hex) with
  | Some h -> h
  | None -> raise (Decode "bad class hash")

let rec encode_fact ~seen buf (f : Facts.t) =
  match f with
  | Facts.Const_str s ->
    Buffer.add_char buf 'C';
    add_str buf s
  | Facts.Const_int i ->
    Buffer.add_char buf 'I';
    add_int buf i
  | Facts.New_obj o ->
    if List.memq (Obj.repr o) seen then raise Not_cacheable;
    let seen = Obj.repr o :: seen in
    Buffer.add_char buf 'O';
    add_str buf o.Facts.cls;
    let members =
      List.sort (fun (a, _) (b, _) -> String.compare a b)
        (Hashtbl.fold (fun k v acc -> (k, v) :: acc) o.Facts.members [])
    in
    add_int buf (List.length members);
    List.iter
      (fun (k, v) ->
         add_str buf k;
         encode_fact ~seen buf v)
      members
  | Facts.Arr a ->
    if List.memq (Obj.repr a) seen then raise Not_cacheable;
    let seen = Obj.repr a :: seen in
    Buffer.add_char buf 'A';
    add_str buf (Ir.Types.to_string a.Facts.elem);
    let cells =
      List.sort (fun (a, _) (b, _) -> compare (a : int) b)
        (Hashtbl.fold (fun k v acc -> (k, v) :: acc) a.Facts.cells [])
    in
    add_int buf (List.length cells);
    List.iter
      (fun (k, v) ->
         add_int buf k;
         encode_fact ~seen buf v)
      cells
  | Facts.Static_ref fld ->
    Buffer.add_char buf 'S';
    add_str buf fld.Ir.Jsig.fcls;
    add_str buf fld.Ir.Jsig.fname;
    add_str buf (Ir.Types.to_string fld.Ir.Jsig.fty)
  | Facts.Framework_input -> Buffer.add_char buf 'F'
  | Facts.Sym s ->
    Buffer.add_char buf 'Y';
    add_str buf s
  | Facts.Unknown -> Buffer.add_char buf 'U'

let rec decode_fact cur : Facts.t =
  match take_char cur with
  | 'C' -> Facts.Const_str (take_str cur)
  | 'I' -> Facts.Const_int (take_int cur)
  | 'O' ->
    let cls = take_str cur in
    let n = take_count cur in
    let members = Hashtbl.create (max 4 n) in
    for _ = 1 to n do
      let k = take_str cur in
      Hashtbl.replace members k (decode_fact cur)
    done;
    Facts.New_obj { Facts.cls; members }
  | 'A' ->
    let elem =
      try Ir.Types.of_string (take_str cur)
      with _ -> raise (Decode "bad array element type")
    in
    let n = take_count cur in
    let cells = Hashtbl.create (max 4 n) in
    for _ = 1 to n do
      let k = take_int cur in
      Hashtbl.replace cells k (decode_fact cur)
    done;
    Facts.Arr { Facts.elem; cells }
  | 'S' ->
    let fcls = take_str cur in
    let fname = take_str cur in
    let fty =
      try Ir.Types.of_string (take_str cur)
      with _ -> raise (Decode "bad field type")
    in
    Facts.Static_ref (Ir.Jsig.field ~cls:fcls ~name:fname ~ty:fty)
  | 'F' -> Facts.Framework_input
  | 'Y' -> Facts.Sym (take_str cur)
  | 'U' -> Facts.Unknown
  | c -> raise (Decode (Printf.sprintf "bad fact tag %C" c))

(* A fact is cacheable iff encoding terminates (no points-to cycle) and
   decoding its encoding re-encodes identically — then replayed verdicts
   are a pure function of the persisted bytes. *)
let fact_to_string_opt f =
  match
    let buf = Buffer.create 64 in
    encode_fact ~seen:[] buf f;
    Buffer.contents buf
  with
  | s ->
    (match
       let check = Buffer.create (String.length s) in
       encode_fact ~seen:[] check (decode_fact { s; pos = 0 });
       Buffer.contents check
     with
     | s' when String.equal s s' -> Some s
     | _ | (exception Not_cacheable) | (exception Decode _) -> None)
  | exception Not_cacheable -> None

let encode_entry e =
  match fact_to_string_opt e.e_fact with
  | None -> None
  | Some fact ->
    let buf = Buffer.create 128 in
    Buffer.add_char buf 'E';
    add_str buf e.e_sink_msig;
    add_int buf e.e_param_index;
    add_str buf e.e_meth;
    add_int buf e.e_site;
    add_int buf (if e.e_reachable then 1 else 0);
    Buffer.add_string buf fact;
    add_int buf (List.length e.e_footprint);
    List.iter
      (fun (cls, h) ->
         add_str buf cls;
         Buffer.add_string buf (Printf.sprintf "%016Lx" h))
      e.e_footprint;
    Some (Buffer.contents buf)

let decode_entry s =
  let cur = { s; pos = 0 } in
  (match take_char cur with
   | 'E' -> ()
   | c -> raise (Decode (Printf.sprintf "bad entry tag %C" c)));
  let e_sink_msig = take_str cur in
  let e_param_index = take_int cur in
  let e_meth = take_str cur in
  let e_site = take_int cur in
  let e_reachable = take_int cur <> 0 in
  let e_fact = decode_fact cur in
  let n = take_count cur in
  let e_footprint =
    List.init n (fun _ ->
        let cls = take_str cur in
        (cls, take_hash cur))
  in
  if cur.pos <> String.length s then raise (Decode "trailing bytes");
  { e_sink_msig; e_param_index; e_meth; e_site; e_reachable; e_fact;
    e_footprint }

let to_strings t = Array.of_list (List.filter_map encode_entry t.entries)

let of_strings a =
  match build (List.map decode_entry (Array.to_list a)) with
  | t -> Ok t
  | exception Decode m -> Error m

(* -- Replay planning --------------------------------------------------- *)

type plan = {
  p_cache : t;
  p_class_hash : string -> int64 option;
  p_named : (string, unit) Hashtbl.t;
      (* operand classes of the slots indexed in this process *)
}

(* Operand class of an arena slot, by category: callee class of an
   invocation, field class of a field op, the descriptor itself for
   new-instance / const-class.  Malformed operands (impossible for
   disassembler output) resolve to no class. *)
let slot_operand_class (arena : Dex.Arena.t) slot =
  let cat = Ivec.get arena.cat slot and sym = Ivec.get arena.sym slot in
  if sym < 0 then None
  else
    let s = Sym.to_string arena.syms.(sym) in
    try
      if cat = Dex.Arena.cat_invoke then
        Some (Sigformat.of_dex_meth s).Ir.Jsig.cls
      else if cat = Dex.Arena.cat_field || cat = Dex.Arena.cat_static_field
      then Some (Sigformat.of_dex_field s).Ir.Jsig.fcls
      else if cat = Dex.Arena.cat_new_instance
              || cat = Dex.Arena.cat_const_class
      then Some (Sigformat.of_dex_class s)
      else None
    with _ -> None

let plan t ~(dex : Dex.Dexfile.t) ~manifest =
  let named = Hashtbl.create 64 in
  List.iter
    (fun (lo, hi) ->
       for slot = lo to hi - 1 do
         match slot_operand_class dex.Dex.Dexfile.arena slot with
         | Some cls -> Hashtbl.replace named cls ()
         | None -> ()
       done)
    dex.Dex.Dexfile.rendered.Dex.Writer.ranges;
  { p_cache = t;
    p_class_hash = class_hash ~classmap:(Dex.Dexfile.classmap dex) ~manifest;
    p_named = named }

let replayable pl (cls, h) =
  (match pl.p_class_hash cls with
   | Some h' -> Int64.equal h h'
   | None -> false)
  && not (Hashtbl.mem pl.p_named cls)

let lookup pl ~sink_msig ~param_index ~meth ~site =
  match
    Hashtbl.find_opt pl.p_cache.by_key
      (key ~sink_msig ~param_index ~meth ~site)
  with
  | Some e
    when e.e_footprint <> [] && List.for_all (replayable pl) e.e_footprint ->
    Some e
  | Some _ | None -> None
