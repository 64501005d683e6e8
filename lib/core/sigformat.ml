(** Signature translation between the program-analysis space (Soot-style IR
    signatures) and the bytecode-search space (dexdump format) — steps 1 and
    3 of the basic search walk-through in Fig. 3. *)

(** Step 1: IR method signature → dexdump search signature. *)
let to_dex_meth = Dex.Descriptor.meth_desc

(** Step 3: dexdump signature (as found by the search) → IR signature, ready
    for method-body lookup in the program space. *)
let of_dex_meth = Dex.Descriptor.meth_of_desc

let of_dex_field = Dex.Descriptor.field_of_desc

let of_dex_class = Dex.Descriptor.class_of_desc

(** Search signature for the same method relocated onto another class (used
    for child-class searches). *)
let to_dex_meth_on_class (m : Ir.Jsig.meth) cls =
  Dex.Descriptor.meth_desc { m with Ir.Jsig.cls }

(* Interned variants: memoized step-1 translations.  A signature is rendered
   once per process; query construction from these is allocation-free and
   yields the same [Sym.t] the disassembler attached to matching lines. *)
let to_dex_meth_sym = Dex.Descriptor.meth_desc_sym
let to_dex_field_sym = Dex.Descriptor.field_desc_sym
let to_dex_class_sym = Dex.Descriptor.class_desc_sym

let to_dex_meth_on_class_sym (m : Ir.Jsig.meth) cls =
  Dex.Descriptor.meth_desc_sym { m with Ir.Jsig.cls }
