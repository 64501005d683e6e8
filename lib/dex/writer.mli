(** Writes the one dexfile layout, line by line, in one of two kinds of
    pass over the same statement walk ({!Disasm}):

    - an {e index pass} ({!index}) writes each instruction line's owner,
      statement, category and operand into the {!Arena} columns, and the
      class tokens of the lines whose other operands carry one.  It writes
      no text.  A cold disassembly is an index pass, and so is a delta's
      writer, which also appends blocks of an old layout's columns
      ({!copy});
    - a {e text pass} ({!text}) writes each line's text into a
      {!Textstore}, over a layout an index pass wrote: it reads each keyed
      line's operand from the arena and writes no column.  A dexfile's
      text is a text pass, run on first read, whatever produced the
      layout.

    Only an instruction line a search can return has a slot: a keyed
    line, or one an operand of which holds a [';'] ({!add_operand}); the
    walk decides which ({!Disasm.size}).  A text pass moves past a slot
    only where its [line_idx] names the line being written.

    The line and slot counts are fixed up front (the renderer counts them
    in a walk over the IR), so the columns are allocated once at their
    final size.  Texts go into one heap buffer that {!finish_text} copies
    into the store once. *)

(** What the writer's index pass wrote, as opposed to what {!copy}
    carried: the slots whose class tokens this process knows, as local
    ids of the arena's table ({!Arena}).  A keyed slot's tokens are those
    of its operand ({!Tokens.of_operand}) and any its line's other
    operands add; an unkeyed slot's are its operands', and it has a slot
    because it has some.  The tokens not in a keyed slot's operand are
    kept per slot. *)
type rendered = {
  ranges : (int * int) list;
      (** [\[lo, hi)] slot ranges written by index passes, ascending,
          disjoint and non-empty *)
  op_toks : int array array;
      (** local id -> the tokens of that operand, for every operand of a
          rendered keyed slot *)
  tok_slots : int array;
      (** rendered slots with tokens beyond their operand's, ascending *)
  tok_ids : int array array;  (** those tokens, parallel to [tok_slots] *)
}

(** Nothing rendered in this process: a snapshot-loaded layout. *)
val nothing_rendered : rendered

type t

(** An index pass over exactly [lines] lines and [slots] slots.  It
    numbers each symbol it meets, the keyed operand of a line first and
    then the line's class tokens, the next local id of the arena's table
    (reading a symbol's id, once numbered, is an array read).  With
    [base], the new layout extends [base]'s owner and symbol tables: owner
    and symbol ids of {!copy}'d slots keep their meaning, and rendered
    owners and symbols not in a table are appended after [base]'s. *)
val index : ?base:Arena.t -> lines:int -> slots:int -> unit -> t

(** A text pass over exactly [lines] lines, whose slots [arena] holds. *)
val text : Arena.t -> lines:int -> t

(** Whether the writer is a text pass (the walk names registers and reads
    operands from the arena) rather than an index pass (the walk interns
    each operand). *)
val writes_text : t -> bool

(** Give rendered slots of [meth] the existing owner id [id] (a delta
    re-rendering a class reuses its old ids). *)
val reuse_owner : t -> Ir.Jsig.meth -> int -> unit

(** Lines and slots written so far. *)
val lines : t -> int
val slots : t -> int

(** In a text pass, the operand of the keyed line being written, as the
    index pass recorded it in the line's slot (read from the arena's
    table). *)
val slot_sym : t -> Sym.t

(** Append to the text of the line being written (nothing in an index
    pass). *)
val add_string : t -> string -> unit
val add_char : t -> char -> unit

(** Append an operand other than a keyed line's searchable one: its text,
    and in an index pass the class tokens it may carry. *)
val add_operand : t -> string -> unit

(** End the line being written as a header line (no slot). *)
val header : t -> unit

(** End the line being written as an instruction line of [owner]
    (declared by class [cls]) at IR statement [stmt], whose searchable
    operand is [sym] in arena category [cat]; its class tokens are those
    of [sym] and of its {!add_operand} operands. *)
val keyed :
  t -> owner:Ir.Jsig.meth -> cls:string -> stmt:int -> cat:int -> Sym.t ->
  unit

(** End the line being written as an instruction line with no searchable
    operand.  In an index pass it takes a slot when [slot] holds, and its
    class tokens are those of its {!add_operand} operands; a line without
    a slot must have none ([Invalid_argument] otherwise: the slot rule
    would lose them).  A text pass ignores [slot]. *)
val unkeyed :
  t -> owner:Ir.Jsig.meth -> cls:string -> stmt:int -> slot:bool -> unit

(** [copy t arena ~lines:(llo, lhi) ~slots:(slo, shi)] appends the columns
    of slots [\[slo, shi)] of [arena], whose lines are [\[llo, lhi)] — a
    class or a run of adjacent classes — rebasing line numbers and keeping
    owner ids (see [base]).  Only an index pass copies. *)
val copy : t -> Arena.t -> lines:int * int -> slots:int * int -> unit

(** The layout, once every declared line and slot is written
    ([Invalid_argument] otherwise, or from a writer of the other kind):
    {!finish_index} for an index pass and {!finish_text} for a text
    pass. *)
val finish_index : t -> Arena.t * rendered
val finish_text : t -> Textstore.t
