(** The "dexdump" of the pipeline: walks IR classes statement by statement
    and writes their dexdump-format lines through a {!Writer}.  One walk
    serves every kind of pass: an index pass (the cold disassembly) interns
    each searchable operand — callee signature, class descriptor, field
    signature or quoted string literal — and classifies its line into an
    arena category, writing no text; a text pass writes the lines'
    plaintext, reading the operands back from the arena and interning
    nothing.  BackDroid's on-the-fly bytecode search is a text search over
    exactly this plaintext.

    Search postings are built from the arena with no text re-parsing, and
    queries intern through the same [Descriptor] memos, so an indexed
    operand and the query that must match it are the same [Sym.t].

    The walk is deterministic, including the order in which registers are
    numbered (in a pass that writes text) and the order in which an index
    pass meets keyed operands and class tokens, which numbers the arena's
    symbols; snapshots store those numbers, so that order is part of their
    format.  The order in which a pass interns symbols is not. *)

(** The lines and slots {!render} writes for a class, counted from the IR
    without rendering.  A line takes a slot when a search can return it:
    a keyed line, or one an operand of which holds a [';'] (and so may
    carry a class token).  The walk decides each line's slot by the same
    per-statement rule, so an index pass writes exactly these counts. *)
val size : Ir.Jclass.t -> int * int

(** The owner and IR statement of each of a class's lines, in the order
    {!render} writes them: [None] for a header line.  A text scan locates
    its matches by it, most instruction lines having no slot. *)
val line_owners : Ir.Jclass.t -> (Ir.Jsig.meth * int) option array

(** Walk one class into [w]: its header lines, then each method's header
    and instructions. *)
val render : Writer.t -> Ir.Jclass.t -> unit

(** The non-system classes of a program in name order — the app dex
    content, in the order a dexfile renders it. *)
val app_classes : Ir.Program.t -> Ir.Jclass.t list
