(** Per-class content-hash table over a disassembled dexfile.

    One entry per class, in line order (classes are contiguous runs of the
    dex plaintext): its [\[lo, hi)] line range, its [\[lo, hi)] arena slot
    range, the FNV-1a-64 hash of its rendered lines ([text_hash],
    {!Textstore.hash_lines}) and the structural {!Ir.Irhash} of its IR
    ([ir_hash]).  A disassembled dexfile records the ranges as it indexes
    and hashes on first use ([Dexfile.classmap], which renders the text
    first); a one-shot analysis that saves nothing never hashes.

    The delta snapshot path ({!Store.Snapshot}, PR 8) diffs a new build
    against an old snapshot by [ir_hash] — no rendering needed for
    unchanged classes — and uses the ranges to splice lines, arena slots,
    postings rows and text-store byte ranges per class. *)

type t = private {
  names : string array;        (** class name per entry, in line order *)
  line_lo : int array;
  line_hi : int array;         (** [\[line_lo.(i), line_hi.(i))] lines *)
  slot_lo : int array;
  slot_hi : int array;         (** [\[slot_lo.(i), slot_hi.(i))] arena slots *)
  text_hash : int64 array;     (** {!Textstore.hash_lines} of the lines *)
  ir_hash : int64 array;       (** structural {!Ir.Irhash.jclass} *)
  index : (string, int) Hashtbl.t;
}

val empty : t
val length : t -> int

(** Entry index of [name], if present. *)
val find : t -> string -> int option

(** Structural IR hash of class [name], if present. *)
val ir_hash_of : t -> string -> int64 option

(** Build from columns.  Raises [Invalid_argument] on a column length
    mismatch. *)
val v :
  names:string array ->
  line_lo:int array -> line_hi:int array ->
  slot_lo:int array -> slot_hi:int array ->
  text_hash:int64 array -> ir_hash:int64 array -> t
