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
    rendering the unchanged ones, and a dexfile's text pass over a stored
    layout checks each class against its stored hash before rendering it.

    [jclass] memoizes by physical identity, weakly, and hashes a class
    once however many domains ask for it ({!Parallel.Once}): the IR is
    immutable and a version update shares the unchanged class objects with
    its predecessor, so re-hashing a mostly-unchanged program costs only
    the changed classes. *)

val jclass : Jclass.t -> int64

(** The fold's first steps, exposed so that tests can pin them: snapshot
    files store {!jclass} hashes, which these folds build. *)

val offset_basis : int64

(** [string h s] folds [s] (length-prefixed) into [h]. *)
val string : int64 -> string -> int64
