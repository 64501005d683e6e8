(** Class-descriptor token extraction: the [Lcom/foo/Bar;] occurrences of a
    dexdump line.  The class-tokens postings index a slot under the tokens
    of its line: a keyed slot's are {!of_operand} of its operand, an
    unkeyed slot's are taken by the index pass with {!of_bytes} over the
    line's operands that hold a [';'] and kept by the dexfile
    ([Dexfile.iter_tokens]), so no line is ever tokenized from its
    text. *)

(** Distinct tokens of bytes [pos .. pos + len - 1] of [b], sorted by
    symbol id, each interned in order of occurrence.  Token-free ranges
    share one empty array. *)
val of_bytes : bytes -> pos:int -> len:int -> Sym.t array

(** Memoized tokens of an interned operand: each distinct operand symbol
    tokenizes once per process.  Keyed instruction lines render their
    tokens only inside the operand (everything before the final [", "] is
    mnemonics and registers), so this covers them exactly. *)
val of_operand : Sym.t -> Sym.t array
