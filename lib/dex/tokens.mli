(** Class-descriptor token extraction: the [Lcom/foo/Bar;] occurrences of a
    dexdump line.  The class-tokens postings index a slot under the tokens
    of its line.  The index pass takes them with {!of_bytes} over the
    line's operands that hold a [';'], other than a keyed line's
    searchable operand, whose tokens are {!of_operand}; the dexfile keeps
    those a keyed slot's operand lacks, and an unkeyed slot's
    ([Dexfile.iter_tokens]), so no line is ever tokenized from its
    text. *)

(** Distinct tokens of bytes [pos .. pos + len - 1] of [b], sorted by
    symbol id, each interned in order of occurrence.  Token-free ranges
    share one empty array. *)
val of_bytes : bytes -> pos:int -> len:int -> Sym.t array

(** Memoized tokens of an interned operand: each distinct operand symbol
    tokenizes once per process.  A keyed instruction line's text ends in
    its operand; the operands before it (an invoke's arguments, a stored
    value) are registers or, rarely, constants whose own tokens the index
    pass takes with {!of_bytes}. *)
val of_operand : Sym.t -> Sym.t array
