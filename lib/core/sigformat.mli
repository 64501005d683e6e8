(** Signature translation between the program-analysis space (Soot-style IR
    signatures) and the bytecode-search space (dexdump format) — steps 1 and
    3 of the basic search walk-through in Fig. 3. *)

(** Step 1: IR method signature → dexdump search signature. *)
val to_dex_meth : Ir.Jsig.meth -> string

(** Step 3: dexdump signature (as found by the search) → IR signature, ready
    for method-body lookup in the program space. *)
val of_dex_meth : string -> Ir.Jsig.meth
val of_dex_field : string -> Ir.Jsig.field
val of_dex_class : string -> string

(** Search signature for the same method relocated onto another class (used
    for child-class searches). *)
val to_dex_meth_on_class : Ir.Jsig.meth -> string -> string

(** Interned variants of the step-1 translations: each signature is rendered
    and hash-consed once per process, so query construction is
    allocation-free and produces the same [Sym.t] the disassembler attached
    to matching lines. *)
val to_dex_meth_sym : Ir.Jsig.meth -> Sym.t
val to_dex_field_sym : Ir.Jsig.field -> Sym.t
val to_dex_class_sym : string -> Sym.t
val to_dex_meth_on_class_sym : Ir.Jsig.meth -> string -> Sym.t
