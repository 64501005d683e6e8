(** Dex (dexdump) descriptor rendering and parsing — the "bytecode format"
    side of the paper's step-1/step-3 signature translation.

    Types render as [I], [Ljava/lang/String;], [[I]; methods as
    [Lcom/foo/Bar;.start:(Ljava/lang/String;)V]; fields as
    [Lcom/foo/Bar;.port:I]. *)

val class_desc : string -> string
val class_of_desc : string -> string
val type_desc : Ir.Types.t -> string

val type_of_desc : string -> Ir.Types.t
val proto_desc : params:Ir.Types.t list -> ret:Ir.Types.t -> string

(** Full dexdump method signature, the exact string the bytecode search
    constructs in step 1 of Fig. 3. *)
val meth_desc : Ir.Jsig.meth -> string
val field_desc : Ir.Jsig.field -> string

(** Parse a dexdump method signature back into IR form (step 3 of Fig. 3). *)
val meth_of_desc : string -> Ir.Jsig.meth
val field_of_desc : string -> Ir.Jsig.field

(** Interned (hash-consed) descriptors — memoized renderings of
    {!class_desc}, {!meth_desc} and {!field_desc}.  Disassembly and query
    construction intern through the same memos, so a search signature and
    the indexed operand it matches are the same [Sym.t]. *)
val class_desc_sym : string -> Sym.t

val meth_desc_sym : Ir.Jsig.meth -> Sym.t
val field_desc_sym : Ir.Jsig.field -> Sym.t
