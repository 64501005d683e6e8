(** Structural content hash over the IR.

    [jclass c] is an FNV-1a-64 fold over the full structure of [c] — name,
    hierarchy links, flags, fields, and every method signature, access set
    and body statement.  The walk feeds only constructor tags, strings and
    small ints, so the hash is stable across processes (no [Sym] ids, no
    physical identity).

    The walk allocates: every fold step that is not inlined returns its
    state as a boxed [int64], about 44 minor words per IR statement.  Two
    allocation-free folds — the state in an 8-byte [Bytes], or in two
    native-int halves of a record — gave the same hashes but made the
    ledger's delta-update slower end to end, so the boxed fold stays.

    Disassembly is a deterministic function of this structure, so equal
    hashes mean equal rendered dex lines; the delta snapshot path uses this
    to find the classes of a new build that need re-disassembly without
    rendering the unchanged ones.

    [jclass] memoizes by physical identity (weakly, thread-safe): the IR is
    immutable and a version update shares the unchanged class objects with
    its predecessor, so re-hashing a mostly-unchanged program costs only
    the changed classes. *)

val jclass : Jclass.t -> int64

(** The raw fold, exposed so other layers (e.g. the dex-side per-class text
    hash) can chain the same FNV-1a-64 stream over their own data. *)

val offset_basis : int64

(** [string h s] folds [s] (length-prefixed) into [h]. *)
val string : int64 -> string -> int64

(** [bigstring h v ~pos ~len] folds bytes [pos .. pos + len - 1] of [v]
    exactly as {!string} folds the same bytes held in a string — the
    per-class text hash reads line texts where they are stored. *)
val bigstring :
  int64 ->
  (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t ->
  pos:int -> len:int -> int64
