(** Class-descriptor token extraction: the [Lcom/foo/Bar;] occurrences of a
    dexdump line.  The class-tokens postings index a slot under the tokens
    of its line.  The index pass takes them with {!of_bytes} over the
    line's operands that hold a [';'], and with {!of_operand} over a keyed
    line's searchable operand, once per distinct operand it meets; so no
    line is ever tokenized from its text. *)

(** Distinct tokens of bytes [pos .. pos + len - 1] of [b], each interned,
    in order of first occurrence: the order an index pass numbers them
    in, so it must not depend on symbol ids.  Token-free ranges share one
    empty array. *)
val of_bytes : bytes -> pos:int -> len:int -> Sym.t array

(** The tokens of an interned operand's text, as {!of_bytes} gives them.
    A keyed instruction line's text ends in its operand; the operands
    before it (an invoke's arguments, a stored value) are registers or,
    rarely, constants whose own tokens the index pass takes with
    {!of_bytes}. *)
val of_operand : Sym.t -> Sym.t array
