(** A disassembled (and, if multidex, merged) dex file in its one layout:
    the plaintext lines that the bytecode search scans, held as one
    {!Textstore}, and the hit {!Arena} that tags each instruction line with
    its enclosing method and that the engine's per-category postings index
    into.  A render ({!of_program}), a snapshot load and a delta all
    produce this layout; a snapshot stores it as it is. *)

(** Where {!classmap} keeps the class map once it exists. *)
type classmap_cell

type t = private {
  text : Textstore.t;  (** the line texts, one per line *)
  arena : Arena.t;
  rendered : Writer.rendered;
      (** the slots rendered in this process, whose class tokens
          {!iter_tokens} knows: every slot of {!of_program}, none of a
          snapshot load, the re-rendered classes of a delta *)
  program : Ir.Program.t;
  classmap_cell : classmap_cell;
}

val of_program : Ir.Program.t -> t

(** A dexfile over a layout and class map built elsewhere (the snapshot
    load and delta paths).  [rendered] defaults to
    {!Writer.nothing_rendered}. *)
val of_parts :
  ?rendered:Writer.rendered ->
  classmap:Classmap.t ->
  Textstore.t -> Arena.t -> Ir.Program.t -> t

(** A dexfile with no lines.  Warm starts use it as the generation-time
    placeholder when the real layout is about to be mapped from a snapshot
    instead of disassembled. *)
val empty : Ir.Program.t -> t

(** Emulate multidex: disassemble each classesN.dex partition separately and
    merge the plaintexts, as BackDroid's preprocessing step does. *)
val of_partitions : Ir.Program.t -> string list list -> t

(** The per-class line/slot ranges and content hashes that snapshots,
    delta updates and persisted results read.  A disassembled dexfile
    records the ranges as it renders and hashes them on first use (one
    [dex]/[classmap] span), so a one-shot analysis that never saves never
    pays for the hashes; one made by {!of_parts} returns the map it was
    given.  Safe from several domains: they all get the same value. *)
val classmap : t -> Classmap.t

val line_count : t -> int

(** The text of line [i], materialised from the store. *)
val line_text : t -> int -> string

(** [iter_tokens t ~lo ~hi f] calls [f tok slot] for each class-descriptor
    token [tok] (a symbol id) of each slot in [\[lo, hi)], in slot order:
    a keyed slot's operand tokens, or the tokens an unkeyed slot's line
    carried when it was rendered.  The class-tokens postings are built
    from this and nothing else.  Raises [Invalid_argument] unless the
    slots were rendered in this process ({!field-rendered}): a snapshot
    keeps no tokens, only the postings built from them. *)
val iter_tokens : t -> lo:int -> hi:int -> (int -> int -> unit) -> unit

val to_string : t -> string
