(** Writes the one dexfile layout, line by line: each line's text into a
    {!Textstore}, and each instruction line's owner, statement, category
    and operand into the {!Arena} columns.  The cold render and the delta
    both append through a writer: the renderer ({!Disasm}) writes fresh
    lines, and {!copy} appends a block of lines and slots from an existing
    layout unchanged.

    The line and slot counts are fixed up front (the renderer counts them
    in a pass over the IR), so the columns are allocated once at their
    final size.  Texts go into one heap buffer that {!finish} copies into
    the store once. *)

(** What the writer's render calls wrote, as opposed to what {!copy}
    carried: the slots whose class tokens this process knows.  A keyed
    slot's tokens are those of its operand ({!Tokens.of_operand}); the
    few unkeyed slots that carry a token keep theirs here. *)
type rendered = {
  ranges : (int * int) list;
      (** [\[lo, hi)] slot ranges written by render calls, ascending,
          disjoint and non-empty *)
  tok_slots : int array;  (** unkeyed rendered slots with tokens, ascending *)
  tok_syms : Sym.t array array;  (** their tokens, parallel to [tok_slots] *)
}

(** Nothing rendered in this process: a snapshot-loaded layout. *)
val nothing_rendered : rendered

type t

(** A writer for exactly [lines] lines and [slots] slots.  With [base],
    the new layout extends [base]'s owner table: owner ids of {!copy}'d
    slots keep their meaning, and rendered owners not in the table are
    appended after [base]'s. *)
val create : ?base:Arena.t -> lines:int -> slots:int -> unit -> t

(** Give rendered slots of [meth] the existing owner id [id] (a delta
    re-rendering a class reuses its old ids). *)
val reuse_owner : t -> Ir.Jsig.meth -> int -> unit

(** Lines and slots written so far. *)
val lines : t -> int
val slots : t -> int

(** Append to the text of the line being written. *)
val add_string : t -> string -> unit
val add_char : t -> char -> unit

(** End the line being written as a header line (no slot). *)
val header : t -> unit

(** End the line being written as an instruction line of [owner]
    (declared by class [cls]) at IR statement [stmt], whose searchable
    operand is [sym] in arena category [cat]. *)
val keyed :
  t -> owner:Ir.Jsig.meth -> cls:string -> stmt:int -> cat:int -> Sym.t ->
  unit

(** End the line being written as an instruction line with no searchable
    operand; its class tokens, if any, are taken from its text now. *)
val unkeyed : t -> owner:Ir.Jsig.meth -> cls:string -> stmt:int -> unit

(** [copy t text arena ~lines:(llo, lhi) ~slots:(slo, shi)] appends lines
    [\[llo, lhi)] of [text] and their slots [\[slo, shi)] of [arena] —
    a class or a run of adjacent classes — rebasing line numbers and
    keeping owner ids (see [base]). *)
val copy :
  t -> Textstore.t -> Arena.t -> lines:int * int -> slots:int * int -> unit

(** The layout, once every declared line and slot is written
    ([Invalid_argument] otherwise). *)
val finish : t -> Textstore.t * Arena.t * rendered
