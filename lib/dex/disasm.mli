(** The "dexdump" of the pipeline: renders IR method bodies into
    dexdump-format plaintext instruction lines.  BackDroid's on-the-fly
    bytecode search is a text search over exactly this output.

    Each instruction line carries a pre-classified, interned {!key}: the
    searchable operand (callee signature, class descriptor, field signature
    or quoted string literal), hash-consed at disassembly time.  Search
    postings are built from these keys with no text re-parsing; queries
    intern through the same [Descriptor] memos, so an indexed operand and
    the query that must match it are the same [Sym.t].

    Rendering is deterministic, including the order in which registers are
    numbered and symbols interned; snapshots store symbol ids, so that
    order is part of their format. *)

(** The searchable operand of an instruction line.  Mirrors the
    operand-extraction rule of the text search (the operand is the text
    after the line's last [", "]), but is computed from the IR, so operands
    containing [", "] — e.g. string literals — are classified correctly. *)
type key =
  | K_invoke of Sym.t        (** [invoke-*]: dexdump callee signature *)
  | K_new_instance of Sym.t  (** [new-instance]: class descriptor *)
  | K_const_class of Sym.t   (** [const-class]: class descriptor *)
  | K_const_string of Sym.t  (** [const-string]: the quoted literal *)
  | K_field of Sym.t         (** [iget]/[iput]: field signature *)
  | K_static_field of Sym.t  (** [sget]/[sput]: field signature *)
  | K_none                   (** header or unsearchable instruction *)

type line = {
  mutable text : string;
      (** snapshot-loaded lines start as {!Textstore.pending} and are
          materialised lazily via [Dexfile.line_text]; disassembled lines
          carry real text *)
  owner : Ir.Jsig.meth option;
  owner_cls : string option;
  stmt_idx : int option;
  key : key;
  tokens : Sym.t array option;
      (** distinct class-descriptor tokens of the line, sorted by symbol
          id, attached at render time ({!Tokens}); [None] = not computed
          (headers, snapshot-loaded lines — consumers re-tokenize
          {!line.text} via {!Tokens.of_string}) *)
}

(** A header line (no owner method, no key, no tokens). *)
val header : string -> string option -> line

(** The lines of one class: its header lines, then each method's header
    and instructions. *)
val class_lines : Ir.Jclass.t -> line array

(** Disassemble all non-system classes, in name order — the app dex
    content. *)
val program_lines : Ir.Program.t -> line array
