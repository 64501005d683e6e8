(** Parser for the dexdump-format plaintext emitted by {!Dex.Disasm}, a
    test oracle that no binary runs.

    This is the inverse direction of the preprocessing step: given raw
    disassembled text (ours, or in principle a real `dexdump -d` capture in
    the same shape), reconstruct the line structure — class and method
    ownership, instruction addresses, opcodes, registers and the symbolic
    operand each search targets.  The round-trip property
    [parse (render program) ≍ program structure] is checked by the test
    suite and pins down the text format the search engine depends on. *)

type operand =
    Meth_ref of Ir.Jsig.meth
  | Field_ref of Ir.Jsig.field
  | Class_ref of string
  | String_lit of string
  | Other_operand of string
type instr = {
  addr : int;
  opcode : string;
  registers : string list;
  operand : operand option;
}
type line =
    Class_header of string
  | Super_header of string
  | Interface_header of string
  | Field_header of Ir.Jsig.field
  | Method_header of Ir.Jsig.meth
  | Instruction of instr
  | Blank
exception Parse_error of string

(** Parse one plaintext line. *)
val parse_line : string -> line
type parsed = {
  lines : (line * Ir.Jsig.meth option * string option) array;
  classes : string list;
  methods : Ir.Jsig.meth list;
}

(** Parse a whole plaintext, reconstructing class / method ownership. *)
val parse_text : string -> parsed

(** Invocation call sites found in raw text: (caller, callee, address). *)
val invocations : parsed -> (Ir.Jsig.meth * Ir.Jsig.meth * int) list
