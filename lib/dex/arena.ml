(** Compact struct-of-arrays hit arena over a disassembled dex plaintext.

    One slot per instruction line (a line with an enclosing method).  Each
    slot records the line's position, IR statement index, owner and — when
    the disassembler classified the line — the interned searchable operand
    and its category.  The search engine's per-category postings are sorted
    int vectors of slots, and a hit record is materialised from a slot only
    when a query actually returns it.

    The unboxed off-heap columns replace the per-hit records the old eager
    index allocated for every instruction line up front: seven hashtables of
    boxed [hit list] buckets become a handful of flat vectors shared by all
    categories, which both shrinks the live heap and stops the GC from
    tracing (or even seeing) a word per indexed line. *)

(* Category codes for [cat]; [-1] marks an unclassified slot. *)
let cat_invoke = 0
let cat_new_instance = 1
let cat_const_class = 2
let cat_const_string = 3
let cat_field = 4
let cat_static_field = 5
let cat_none = -1

type t = {
  line_idx : Ivec.t;  (** slot -> index into the dexfile line array *)
  stmt_idx : Ivec.t;  (** slot -> IR statement index; [-1] = none *)
  owner_id : Ivec.t;  (** slot -> index into [owners] / [owner_cls] *)
  cat : Ivec.t;       (** slot -> category code; [cat_none] = unkeyed *)
  sym : Ivec.t;       (** slot -> [Sym.id] of the operand; [-1] = unkeyed *)
  owners : Ir.Jsig.meth array;      (** unique enclosing methods *)
  owner_cls : string array;         (** enclosing class, parallel to [owners] *)
}

let length t = Ivec.length t.line_idx

let key_code : Disasm.key -> int * int = function
  | K_invoke s -> (cat_invoke, Sym.id s)
  | K_new_instance s -> (cat_new_instance, Sym.id s)
  | K_const_class s -> (cat_const_class, Sym.id s)
  | K_const_string s -> (cat_const_string, Sym.id s)
  | K_field s -> (cat_field, Sym.id s)
  | K_static_field s -> (cat_static_field, Sym.id s)
  | K_none -> (cat_none, -1)

let of_lines (lines : Disasm.line array) =
  let n_slots = ref 0 in
  Array.iter
    (fun (l : Disasm.line) -> if Option.is_some l.owner then incr n_slots)
    lines;
  let n = !n_slots in
  let line_idx = Ivec.create n in
  let stmt_idx = Ivec.create n in
  let owner_id = Ivec.create n in
  let cat = Ivec.create n in
  let sym = Ivec.create n in
  let owner_tbl : int Ir.Jsig.Meth_tbl.t = Ir.Jsig.Meth_tbl.create 256 in
  let owners = ref [] and owner_cls = ref [] and n_owners = ref 0 in
  (* a method's lines are contiguous and share one owner value, so the
     table is probed once per method, not once per slot *)
  let last_owner = ref None and last_id = ref (-1) in
  let owner_id_of (l : Disasm.line) owner =
    match !last_owner with
    | Some o when o == owner -> !last_id
    | _ ->
      let id =
        match Ir.Jsig.Meth_tbl.find_opt owner_tbl owner with
        | Some id -> id
        | None ->
          let id = !n_owners in
          incr n_owners;
          Ir.Jsig.Meth_tbl.add owner_tbl owner id;
          owners := owner :: !owners;
          owner_cls := Option.value ~default:"" l.owner_cls :: !owner_cls;
          id
      in
      last_owner := l.owner;
      last_id := id;
      id
  in
  let slot = ref 0 in
  Array.iteri
    (fun i (l : Disasm.line) ->
       match l.owner with
       | None -> ()
       | Some owner ->
         let s = !slot in
         incr slot;
         Ivec.set line_idx s i;
         Ivec.set stmt_idx s (Option.value ~default:(-1) l.stmt_idx);
         Ivec.set owner_id s (owner_id_of l owner);
         let c, sy = key_code l.key in
         Ivec.set cat s c;
         Ivec.set sym s sy)
    lines;
  { line_idx; stmt_idx; owner_id; cat; sym;
    owners = Array.of_list (List.rev !owners);
    owner_cls = Array.of_list (List.rev !owner_cls) }
