(** A disassembled (and, if multidex, merged) dex file: the flat array of
    plaintext lines that the bytecode search engine scans, each line tagged
    with its enclosing method, plus the compact hit {!Arena} the engine's
    per-category postings index into. *)

(** Where {!classmap} keeps the class map once it exists. *)
type classmap_cell

type t = private {
  lines : Disasm.line array;
  arena : Arena.t;
  program : Ir.Program.t;
  texts : Textstore.t option;
      (** off-heap line texts of a snapshot-loaded dexfile; [None] when the
          lines were disassembled in-process and carry their own strings.
          When present, read texts through {!line_text} (or the store's
          allocation-free predicates), never [lines.(i).text] directly. *)
  classmap_cell : classmap_cell;
}

val of_program : Ir.Program.t -> t

(** A dexfile over lines, arena and class map built elsewhere (the snapshot
    load and delta paths).  With [texts], the line records carry
    {!Textstore.pending} as their text and {!line_text} materialises and
    caches real strings on demand; the store holds one text per line
    ([Invalid_argument] otherwise). *)
val of_parts :
  ?texts:Textstore.t ->
  classmap:Classmap.t ->
  Disasm.line array -> Arena.t -> Ir.Program.t -> t

(** A dexfile with no plaintext lines, an empty arena and an empty class
    map.  Warm starts use it as the generation-time placeholder when the
    real lines and arena are about to be mapped from a snapshot instead of
    disassembled. *)
val empty : Ir.Program.t -> t

(** Emulate multidex: disassemble each classesN.dex partition separately and
    merge the plaintexts, as BackDroid's preprocessing step does. *)
val of_partitions : Ir.Program.t -> string list list -> t

(** The per-class line/slot ranges and content hashes that snapshots,
    delta updates and persisted results read.  A disassembled dexfile builds
    it on first use (one [dex]/[classmap] span), so a one-shot analysis
    that never saves never pays for it; one made by {!of_parts} or {!empty}
    returns the map it was given.  Safe from several domains: they all get
    the same value. *)
val classmap : t -> Classmap.t

val line_count : t -> int

(** The text of line [i], materialising (and caching) it from the off-heap
    store when the dexfile came from a snapshot.  Safe from multiple
    domains: racing writers install equal strings. *)
val line_text : t -> int -> string

val to_string : t -> string
