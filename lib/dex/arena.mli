(** Compact struct-of-arrays hit arena over a disassembled dex plaintext.

    One slot per instruction line (a line with an enclosing method); slots
    are in line order, so [line_idx] is strictly ascending.  Header lines
    have no slot.  Per-category search postings index into this arena with
    plain ints, and hit records are materialised from a slot only when a
    query returns it.  The index pass ({!Writer}) fills the columns as it
    walks each instruction line, before any text exists.

    The int columns are {!Ivec.t}s: the payload lives off the OCaml heap,
    invisible to the GC, and a snapshot load can alias them to mmapped file
    sections instead of rebuilding them. *)

(** Category codes stored in {!t.cat}. *)
val cat_invoke : int
val cat_new_instance : int
val cat_const_class : int
val cat_const_string : int
val cat_field : int
val cat_static_field : int

(** Marks a slot whose line has no searchable operand. *)
val cat_none : int

type t = {
  line_idx : Ivec.t;  (** slot -> line number in the dexfile's texts *)
  stmt_idx : Ivec.t;  (** slot -> IR statement index; [-1] = none *)
  owner_id : Ivec.t;  (** slot -> index into [owners] / [owner_cls] *)
  cat : Ivec.t;       (** slot -> category code; {!cat_none} = unkeyed *)
  sym : Ivec.t;       (** slot -> [Sym.id] of the operand; [-1] = unkeyed *)
  owners : Ir.Jsig.meth array;  (** unique enclosing methods *)
  owner_cls : string array;     (** enclosing class, parallel to [owners] *)
}

(** Number of slots. *)
val length : t -> int
