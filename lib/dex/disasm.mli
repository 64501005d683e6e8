(** The "dexdump" of the pipeline: renders IR classes into dexdump-format
    plaintext through a {!Writer}, which lays the lines out as the
    dexfile's text store and hit arena.  BackDroid's on-the-fly bytecode
    search is a text search over exactly this output.

    Each instruction line with a searchable operand (callee signature,
    class descriptor, field signature or quoted string literal) is written
    with that operand interned and classified into an arena category, so
    search postings are built with no text re-parsing; queries intern
    through the same [Descriptor] memos, so an indexed operand and the
    query that must match it are the same [Sym.t].

    Rendering is deterministic, including the order in which registers are
    numbered and symbols interned; snapshots store symbol ids, so that
    order is part of their format. *)

(** The lines and slots {!render} writes for a class, counted from the IR
    without rendering. *)
val size : Ir.Jclass.t -> int * int

(** Render one class: its header lines, then each method's header and
    instructions. *)
val render : Writer.t -> Ir.Jclass.t -> unit

(** The non-system classes of a program in name order — the app dex
    content, in the order a dexfile renders it. *)
val app_classes : Ir.Program.t -> Ir.Jclass.t list
