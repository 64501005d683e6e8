(** A disassembled (and, if multidex, merged) dex file in its one layout:
    the hit {!Arena} that tags each instruction line a search can return
    with its enclosing method and operand, and that the engine's
    per-category postings index into; the per-class {!Classmap}; and the plaintext lines, held as one
    {!Textstore}, that free-form and scan-mode searches read.  A render
    ({!of_program}), a snapshot load and a delta all produce the arena and
    the class map; a snapshot stores those, and no text.

    A render is an index pass: it writes the arena, interns every symbol
    and numbers those it indexes, and writes no text.  Whatever produced the layout, the text is
    rendered from the program's IR on first read ({!text}): an analysis
    over an indexed engine never reads it, so neither a one-shot analysis
    nor a save, a load or a delta renders it. *)

(** The text and the class map, each built on first use. *)
type cells

type t = private {
  lines : int;  (** number of lines *)
  arena : Arena.t;
  rendered : Writer.rendered;
      (** the slots rendered in this process, whose class tokens
          {!iter_tokens} knows: every slot of {!of_program}, none of a
          snapshot load, the re-rendered classes of a delta.  The replay
          plan of persisted results reads the classes their operands
          name: for a delta, what its changed and added classes name *)
  program : Ir.Program.t;
  cells : cells;
}

val of_program : Ir.Program.t -> t

(** A dexfile of [lines] lines over an arena and class map built elsewhere
    (the snapshot load and delta paths), from [program]'s classes.
    [rendered] defaults to {!Writer.nothing_rendered}. *)
val of_parts :
  ?rendered:Writer.rendered ->
  lines:int ->
  classmap:Classmap.t ->
  Arena.t -> Ir.Program.t -> t

(** A dexfile with no lines.  Warm starts use it as the generation-time
    placeholder when the real layout is about to be mapped from a snapshot
    instead of disassembled. *)
val empty : Ir.Program.t -> t

(** Emulate multidex: disassemble each classesN.dex partition separately and
    merge the plaintexts, as BackDroid's preprocessing step does. *)
val of_partitions : Ir.Program.t -> string list list -> t

(** The line texts, rendered on first call in a text pass over the
    classes in line order (one [dex]/[text] span and one
    [dex.text.renders] count); the pass interns no symbol.  A dexfile from
    {!of_program} or {!of_partitions} walks the classes it indexed.  One
    from {!of_parts} walks the program's classes in class-map order, each
    first checked to render its entry's line and slot counts and to have
    its entry's IR hash: a program that is not the one the layout was
    built from raises [Invalid_argument] rather than render a text the
    arena does not index.  Readers: {!line_text}, {!to_string}, scan-mode
    and free-form searches.  Safe from several domains: they all get the
    same store. *)
val text : t -> Textstore.t

(** The per-class line/slot ranges and IR hashes that snapshots, delta
    updates and persisted results read.  A disassembled dexfile records
    the ranges as it renders and hashes the classes on first use (one
    [dex]/[classmap] span), so a one-shot analysis that never saves never
    pays for the hashes; one made by {!of_parts} returns the map it was
    given.  Safe from several domains: they all get the same value. *)
val classmap : t -> Classmap.t

(** [locator t line] is [line]'s owner, its owner's class and its IR
    statement, or [None] for a header line.  It reads the layout of the
    line's class, not the arena, so it also locates the instruction lines
    that have no slot: the classes this dexfile indexed, or else the class
    map's, checked against the program as {!text} checks them.  One
    locator walks each class it is asked about once in a row of lines of
    that class: ask in line order.  Raises [Invalid_argument] for a line
    out of range. *)
val locator : t -> int -> (Ir.Jsig.meth * string * int) option

(** Number of lines; renders no text. *)
val line_count : t -> int

(** The text of line [i], materialised from the store. *)
val line_text : t -> int -> string

(** [iter_tokens t ~lo ~hi f] calls [f tok slot] for each class-descriptor
    token [tok] (a local id of the arena's table) of each slot in
    [\[lo, hi)], in slot order,
    each token once per slot: a keyed slot's operand tokens, then the
    tokens its line's other operands carried when it was indexed, or the
    tokens an unkeyed slot's line carried.  The class-tokens postings are
    built from this and nothing else, and it reads no text.  Raises
    [Invalid_argument] unless the slots were rendered in this process
    ({!field-rendered}): a snapshot keeps no tokens, only the postings
    built from them. *)
val iter_tokens : t -> lo:int -> hi:int -> (int -> int -> unit) -> unit

(** The whole text, one line per ['\n']-terminated line. *)
val to_string : t -> string
