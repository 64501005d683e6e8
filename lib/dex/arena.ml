(** Compact struct-of-arrays hit arena over a disassembled dex plaintext.

    One slot per instruction line (a line with an enclosing method).  Each
    slot records the line's position, IR statement index, owner and — when
    the disassembler classified the line — the interned searchable operand
    and its category.  The index pass ({!Writer}) fills these columns as
    it walks each instruction line, before any text exists.  The search engine's per-category
    postings are sorted int vectors of slots, and a hit record is
    materialised from a slot only when a query actually returns it.

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
  line_idx : Ivec.t;  (** slot -> line number in the dexfile's texts *)
  stmt_idx : Ivec.t;  (** slot -> IR statement index; [-1] = none *)
  owner_id : Ivec.t;  (** slot -> index into [owners] / [owner_cls] *)
  cat : Ivec.t;       (** slot -> category code; [cat_none] = unkeyed *)
  sym : Ivec.t;       (** slot -> [Sym.id] of the operand; [-1] = unkeyed *)
  owners : Ir.Jsig.meth array;      (** unique enclosing methods *)
  owner_cls : string array;         (** enclosing class, parallel to [owners] *)
}

let length t = Ivec.length t.line_idx
