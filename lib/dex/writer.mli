(** Writes the one dexfile layout, line by line, in one of three kinds of
    pass over the same statement walk ({!Disasm}):

    - an {e index pass} ({!index}) writes each instruction line's owner,
      statement, category and operand into the {!Arena} columns, and the
      class tokens of the unkeyed lines that carry one.  It writes no text.
      A cold disassembly is an index pass;
    - a {e text pass} ({!text}) writes each line's text into a
      {!Textstore}, over a layout an index pass wrote: it reads each keyed
      line's operand from the arena and writes no column.  The dexfile's
      text is a text pass, run on first read;
    - a writer made by {!create} does both, and {!copy} appends a block of
      lines and slots from an existing layout unchanged.  The delta writes
      its new layout so.

    The line and slot counts are fixed up front (the renderer counts them
    in a walk over the IR), so the columns are allocated once at their
    final size.  Texts go into one heap buffer that the finishing call
    copies into the store once. *)

(** What the writer's index pass wrote, as opposed to what {!copy}
    carried: the slots whose class tokens this process knows.  A keyed
    slot's tokens are those of its operand ({!Tokens.of_operand}); the
    few unkeyed slots that carry a token keep theirs here. *)
type rendered = {
  ranges : (int * int) list;
      (** [\[lo, hi)] slot ranges written by index passes, ascending,
          disjoint and non-empty *)
  tok_slots : int array;  (** unkeyed rendered slots with tokens, ascending *)
  tok_syms : Sym.t array array;  (** their tokens, parallel to [tok_slots] *)
}

(** Nothing rendered in this process: a snapshot-loaded layout. *)
val nothing_rendered : rendered

type t

(** A writer of texts and slots together, for exactly [lines] lines and
    [slots] slots.  With [base], the new layout extends [base]'s owner
    table: owner ids of {!copy}'d slots keep their meaning, and rendered
    owners not in the table are appended after [base]'s. *)
val create : ?base:Arena.t -> lines:int -> slots:int -> unit -> t

(** An index pass over exactly [lines] lines and [slots] slots. *)
val index : lines:int -> slots:int -> t

(** A text pass over exactly [lines] lines, whose slots [arena] holds. *)
val text : Arena.t -> lines:int -> t

(** Whether the writer records slots (the walk interns each operand) and
    whether it writes text (the walk names registers). *)
val records_slots : t -> bool
val writes_text : t -> bool

(** Give rendered slots of [meth] the existing owner id [id] (a delta
    re-rendering a class reuses its old ids). *)
val reuse_owner : t -> Ir.Jsig.meth -> int -> unit

(** Lines and slots written so far. *)
val lines : t -> int
val slots : t -> int

(** In a text pass, the operand of the slot about to be written, as the
    index pass recorded it. *)
val slot_sym : t -> Sym.t

(** Append to the text of the line being written (nothing in an index
    pass). *)
val add_string : t -> string -> unit
val add_char : t -> char -> unit

(** Append an operand of an unkeyed line: its text, and in an index pass
    the class tokens it may carry. *)
val add_operand : t -> string -> unit

(** End the line being written as a header line (no slot). *)
val header : t -> unit

(** End the line being written as an instruction line of [owner]
    (declared by class [cls]) at IR statement [stmt], whose searchable
    operand is [sym] in arena category [cat]. *)
val keyed :
  t -> owner:Ir.Jsig.meth -> cls:string -> stmt:int -> cat:int -> Sym.t ->
  unit

(** End the line being written as an instruction line with no searchable
    operand; its class tokens, if any, are those of its {!add_operand}
    operands. *)
val unkeyed : t -> owner:Ir.Jsig.meth -> cls:string -> stmt:int -> unit

(** [copy t text arena ~lines:(llo, lhi) ~slots:(slo, shi)] appends lines
    [\[llo, lhi)] of [text] and their slots [\[slo, shi)] of [arena] —
    a class or a run of adjacent classes — rebasing line numbers and
    keeping owner ids (see [base]).  Only a {!create} writer copies. *)
val copy :
  t -> Textstore.t -> Arena.t -> lines:int * int -> slots:int * int -> unit

(** The layout, once every declared line and slot is written
    ([Invalid_argument] otherwise, or from a writer of another kind):
    {!finish} for a {!create} writer, {!finish_index} for an index pass
    and {!finish_text} for a text pass. *)
val finish : t -> Textstore.t * Arena.t * rendered
val finish_index : t -> Arena.t * rendered
val finish_text : t -> Textstore.t
