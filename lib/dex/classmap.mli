(** Per-class table over a disassembled dexfile.

    One entry per class, in line order (classes are contiguous runs of the
    dex plaintext): its [\[lo, hi)] line range, its [\[lo, hi)] arena slot
    range and the structural {!Ir.Irhash} of its IR ([ir_hash]).  A
    disassembled dexfile records the ranges as it indexes and hashes on
    first use ([Dexfile.classmap]); a one-shot analysis that saves nothing
    never hashes.

    The delta snapshot path ({!Store.Snapshot}) diffs a new build against
    an old snapshot by [ir_hash] — no rendering needed for unchanged
    classes — and uses the ranges to splice arena slots and postings rows
    per class.  The text pass of a loaded or delta-built dexfile walks the
    entries in order and checks each against the program's class
    ([Dexfile.text]). *)

type t = private {
  names : string array;        (** class name per entry, in line order *)
  line_lo : int array;
  line_hi : int array;         (** [\[line_lo.(i), line_hi.(i))] lines *)
  slot_lo : int array;
  slot_hi : int array;         (** [\[slot_lo.(i), slot_hi.(i))] arena slots *)
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
  ir_hash:int64 array -> t
