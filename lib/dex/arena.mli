(** Compact struct-of-arrays hit arena over a disassembled dex plaintext.

    One slot per instruction line a search can return: a keyed line, or
    one an operand of which holds a [';'] and so may carry a class token
    ({!Disasm.size} states the rule).  Slots are in line order, so
    [line_idx] is strictly ascending.  Header lines and the other
    instruction lines, most of them, have no slot.  Per-category search
    postings index into this arena with plain ints, and hit records are
    materialised from a slot only when a query returns it.  The index pass
    ({!Writer}) fills the columns as it walks each instruction line,
    before any text exists.

    Symbols are numbered per arena: local id [i] is [syms.(i)], and ids
    are dense, in the order the index pass first met each keyed operand
    and class token.  The [sym] column and every postings key hold local
    ids, so an arena, and a snapshot of it, depend only on its app, not on
    what else the process interned.  A delta's index pass extends its old
    arena's table, so carried columns and postings keep their ids.

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

(** Marks a slot whose line has no searchable operand, only class
    tokens. *)
val cat_none : int

(** The owner table: one entry per enclosing method, its signature and
    its declaring class.  An index pass builds it decoded; a snapshot load
    leaves it in the file's mapped sections, checked, and decodes each
    entry on first read, so a warm analysis parses only the owners its
    hits name. *)
module Owners : sig
  type t

  (** The text of a table's first {!n_stored} entries, as a snapshot
      stores it: entry [i]'s signature ({!Ir.Jsig.meth_to_string}) is
      [sigs\[sig_offsets.(i), sig_offsets.(i+1))] and its class
      [classes\[cls_offsets.(i), cls_offsets.(i+1))]; each offsets vector
      starts at 0 and ends at its blob's length. *)
  type stored = {
    sig_offsets : Ivec.t;
    sigs : Bvec.t;
    cls_offsets : Ivec.t;
    classes : Bvec.t;
  }

  (** No entry: what an index pass without a base extends. *)
  val empty : t

  (** A table of every entry of [stored], decoded on first read.  Checks
      the offsets, and every signature with {!Ir.Jsig.meth_parses}, so no
      later decode fails; allocates nothing per entry.  [Error] names what
      is wrong. *)
  val of_stored : stored -> (t, string) result

  (** [append t meths cls]: [t]'s entries, then these decoded ones, the
      methods and their classes in parallel ([Invalid_argument] if the
      lengths differ).  The stored text, and what of it is still
      undecoded, carries over. *)
  val append : t -> Ir.Jsig.meth array -> string array -> t

  val length : t -> int

  (** Entry [i]'s method, parsed from its stored text on first read (one
      [dex.owners.decoded] count).  Safe from several domains. *)
  val meth : t -> int -> Ir.Jsig.meth

  (** Entry [i]'s class, cut from its stored text on first read. *)
  val cls : t -> int -> string

  (** [cls_equal t i s] is [String.equal (cls t i) s], decoding nothing. *)
  val cls_equal : t -> int -> string -> bool

  (** The stored text of entries [\[0, n_stored t)]; entries from
      [n_stored t] on are decoded.  A table built by an index pass stores
      none. *)
  val stored : t -> stored

  val n_stored : t -> int
end

type t = {
  line_idx : Ivec.t;  (** slot -> line number in the dexfile's texts *)
  stmt_idx : Ivec.t;  (** slot -> IR statement index; [-1] = none *)
  owner_id : Ivec.t;  (** slot -> index into [owners] *)
  cat : Ivec.t;       (** slot -> category code; {!cat_none} = unkeyed *)
  sym : Ivec.t;       (** slot -> local id of the operand; [-1] = unkeyed *)
  syms : Sym.t array; (** local id -> symbol, one-to-one *)
  owners : Owners.t;  (** unique enclosing methods and their classes *)
}

(** Number of slots. *)
val length : t -> int
