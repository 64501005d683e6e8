(** Parser for the dexdump-format plaintext emitted by {!Dex.Disasm}, a
    test oracle that no binary runs.

    This is the inverse direction of the preprocessing step: given raw
    disassembled text (ours, or in principle a real `dexdump -d` capture in
    the same shape), reconstruct the line structure — class and method
    ownership, instruction addresses, opcodes, registers and the symbolic
    operand each search targets.  The round-trip property
    [parse (render program) ≍ program structure] is checked by the test
    suite and pins down the text format the search engine depends on. *)

open Ir

type operand =
  | Meth_ref of Jsig.meth     (** invoke-* operands *)
  | Field_ref of Jsig.field   (** iget/iput/sget/sput operands *)
  | Class_ref of string       (** new-instance / const-class / check-cast *)
  | String_lit of string      (** const-string *)
  | Other_operand of string

type instr = {
  addr : int;
  opcode : string;
  registers : string list;
  operand : operand option;
}

type line =
  | Class_header of string        (** dotted class name *)
  | Super_header of string
  | Interface_header of string
  | Field_header of Jsig.field
  | Method_header of Jsig.meth
  | Instruction of instr
  | Blank

exception Parse_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt

let strip_quotes s =
  let n = String.length s in
  if n >= 2 && s.[0] = '\'' && s.[n - 1] = '\'' then String.sub s 1 (n - 2)
  else s

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(** Split "op regs..., operand" after the address tag. *)
let parse_instr_text addr text =
  let opcode, rest =
    match String.index_opt text ' ' with
    | None -> text, ""
    | Some sp ->
      String.sub text 0 sp,
      String.sub text (sp + 1) (String.length text - sp - 1)
  in
  let registers, operand_text =
    if starts_with ~prefix:"{" rest then begin
      (* invoke-style register list: {v0, v1}, OPERAND *)
      match String.index_opt rest '}' with
      | None -> fail "unterminated register list in %S" text
      | Some close ->
        let regs =
          String.sub rest 1 (close - 1)
          |> String.split_on_char ','
          |> List.map String.trim
          |> List.filter (fun s -> s <> "")
        in
        let after = String.sub rest (close + 1) (String.length rest - close - 1) in
        let after = String.trim after in
        let after =
          if starts_with ~prefix:"," after then
            String.trim (String.sub after 1 (String.length after - 1))
          else after
        in
        regs, (if after = "" then None else Some after)
    end
    else begin
      (* comma-separated registers, the last element may be an operand *)
      let parts = String.split_on_char ',' rest |> List.map String.trim in
      let is_reg s =
        String.length s >= 2 && s.[0] = 'v'
        && String.for_all (fun c -> c >= '0' && c <= '9')
             (String.sub s 1 (String.length s - 1))
      in
      match List.rev parts with
      | [] | [ "" ] -> [], None
      | last :: rev_init when not (is_reg last) ->
        List.rev rev_init, Some last
      | _ -> parts, None
    end
  in
  let operand =
    Option.map
      (fun op ->
         if starts_with ~prefix:"L" op && String.contains op ';'
            && String.contains op ':' && String.contains op '.' then begin
           if String.contains op '(' then Meth_ref (Dex.Descriptor.meth_of_desc op)
           else Field_ref (Dex.Descriptor.field_of_desc op)
         end
         else if starts_with ~prefix:"L" op && String.length op > 2
                 && op.[String.length op - 1] = ';' then
           Class_ref (Dex.Descriptor.class_of_desc op)
         else if starts_with ~prefix:"\"" op then
           String_lit (Scanf.sscanf op "%S" (fun s -> s))
         else Other_operand op)
      operand_text
  in
  { addr; opcode; registers; operand }

(** Parse one plaintext line. *)
let parse_line raw =
  let s = String.trim raw in
  if s = "" then Blank
  else if starts_with ~prefix:"Class descriptor : " s then
    Class_header
      (Dex.Descriptor.class_of_desc
         (strip_quotes
            (String.trim
               (String.sub s 19 (String.length s - 19)))))
  else if starts_with ~prefix:"Superclass : " s then begin
    let d = strip_quotes (String.trim (String.sub s 13 (String.length s - 13))) in
    Super_header (if d = "-" then "" else Dex.Descriptor.class_of_desc d)
  end
  else if starts_with ~prefix:"Interface : " s then
    Interface_header
      (Dex.Descriptor.class_of_desc
         (strip_quotes (String.trim (String.sub s 12 (String.length s - 12)))))
  else if starts_with ~prefix:"method " s then
    Method_header
      (Dex.Descriptor.meth_of_desc (String.sub s 7 (String.length s - 7)))
  else if starts_with ~prefix:"field " s then
    Field_header
      (Dex.Descriptor.field_of_desc (String.sub s 6 (String.length s - 6)))
  else
    (* "0004: op ..." instruction lines *)
    match String.index_opt s ':' with
    | Some colon
      when colon > 0
           && String.for_all
                (fun c ->
                   (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')
                   || (c >= 'A' && c <= 'F'))
                (String.sub s 0 colon) ->
      let addr = int_of_string ("0x" ^ String.sub s 0 colon) in
      let text = String.trim (String.sub s (colon + 1) (String.length s - colon - 1)) in
      Instruction (parse_instr_text addr text)
    | Some _ | None -> fail "unrecognised line %S" raw

type parsed = {
  lines : (line * Jsig.meth option * string option) array;
      (** parsed line, enclosing method, enclosing class *)
  classes : string list;
  methods : Jsig.meth list;
}

(** Parse a whole plaintext, reconstructing class / method ownership. *)
let parse_text text =
  let cur_cls = ref None and cur_meth = ref None in
  let classes = ref [] and methods = ref [] in
  let lines =
    String.split_on_char '\n' text
    |> List.filter (fun l -> String.trim l <> "")
    |> List.map (fun raw ->
        let l = parse_line raw in
        (match l with
         | Class_header c ->
           cur_cls := Some c;
           cur_meth := None;
           classes := c :: !classes
         | Method_header m ->
           cur_meth := Some m;
           methods := m :: !methods
         | Super_header _ | Interface_header _ | Field_header _ | Blank
         | Instruction _ -> ());
        let owner = match l with Instruction _ -> !cur_meth | _ -> None in
        (l, owner, !cur_cls))
    |> Array.of_list
  in
  { lines; classes = List.rev !classes; methods = List.rev !methods }

(** Invocation call sites found in raw text: (caller, callee, address). *)
let invocations parsed =
  Array.to_list parsed.lines
  |> List.filter_map (fun (l, owner, _) ->
      match l, owner with
      | Instruction { opcode; operand = Some (Meth_ref callee); addr; _ }, Some caller
        when starts_with ~prefix:"invoke-" opcode ->
        Some (caller, callee, addr)
      | _, _ -> None)
