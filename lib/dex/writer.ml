(* The one writer of the dexfile layout, in two modes.  An index pass
   writes the arena columns and the rendered slots' class tokens, and no
   text; it can also copy blocks of columns from an old layout (the
   delta).  A text pass writes the line texts over a layout an index pass
   wrote, reading each keyed slot's operand from its arena and writing no
   column.  Only the lines a search can return have a slot (the walk's
   slot rule, [Disasm]): a text pass moves past a slot where its
   [line_idx] names the line being written.

   Columns are written in place at their final size; texts go into a
   growable heap buffer copied into the store once at the end, so the blob
   is the texts' one off-heap allocation, made at its final size.  OCaml 5
   charges bigarray memory to major-GC pacing: writing texts into presized
   off-heap vectors was measured at about twice the major GC cycles per
   app. *)

type rendered = {
  ranges : (int * int) list;
  op_toks : int array array;
  tok_slots : int array;
  tok_ids : int array array;
}

let nothing_rendered =
  { ranges = []; op_toks = [||]; tok_slots = [||]; tok_ids = [||] }

module Meth_tbl = Ir.Jsig.Meth_tbl

type t = {
  index : bool;  (* an index pass; otherwise a text pass *)
  n_lines : int;
  mutable text : Bytes.t;
  mutable tlen : int;
  offs : Ivec.t;  (* line -> text start; one past the last line too *)
  mutable line : int;
  line_idx : Ivec.t;
  stmt_idx : Ivec.t;
  owner_id : Ivec.t;
  cat : Ivec.t;
  sym : Ivec.t;  (* a text pass reads its keyed slots' operands here *)
  mutable slot : int;
  mutable syms : Sym.t array;  (* local id -> symbol, [\[0, n_syms)] *)
  mutable n_syms : int;
  mutable local : int array;  (* index pass: Sym.id -> local id, or -1 *)
  mutable op_toks : int array array;  (* local id -> its tokens, or [unmet] *)
  owner_tbl : int Meth_tbl.t;
  base_owners : Arena.Owners.t;
  mutable new_owners : Ir.Jsig.meth list;  (* newest first *)
  mutable new_cls : string list;
  mutable n_owners : int;
  mutable last_owner : Ir.Jsig.meth option;
  mutable last_id : int;
  mutable run_lo : int;  (* first slot of the open rendered range, or -1 *)
  mutable ranges : (int * int) list;  (* newest first *)
  mutable toks : (int * int array) list;  (* newest first *)
  mutable ops : Bytes.t;  (* the line's token-bearing operands, see below *)
  mutable ops_len : int;
}

(* generated apps' lines average about 37 bytes: the buffer rarely grows *)
let bytes_per_line = 48

(* an operand no keyed slot of this pass has met: its tokens are not
   known yet *)
let unmet = [| -1 |]

let make ~index ?base ?arena ~lines ~slots () =
  let base_owners, base_syms =
    match base with
    | Some (a : Arena.t) -> (a.owners, a.syms)
    | None -> (Arena.Owners.empty, [||])
  in
  (* a text pass reads its arena's table; an index pass numbers symbols
     through [local], sized to the ids interned so far, starting from
     [base]'s numbering *)
  let syms, local =
    match arena with
    | Some a -> (a.Arena.syms, [||])
    | None ->
      let local = Array.make (Sym.interned ()) (-1) in
      Array.iteri (fun l s -> local.(Sym.id s) <- l) base_syms;
      (base_syms, local)
  in
  let offs = Ivec.create (if index then 0 else lines + 1) in
  if not index then Bigarray.Array1.set offs 0 0;
  let col (read : Arena.t -> Ivec.t) =
    match arena with Some a -> read a | None -> Ivec.create slots
  in
  { index; n_lines = lines;
    text = Bytes.create (if index then 0 else max 64 (bytes_per_line * lines));
    tlen = 0; offs; line = 0;
    line_idx = col (fun a -> a.line_idx); stmt_idx = col (fun a -> a.stmt_idx);
    owner_id = col (fun a -> a.owner_id); cat = col (fun a -> a.cat);
    sym = col (fun a -> a.sym); slot = 0;
    syms; n_syms = Array.length syms; local;
    op_toks = Array.make (Array.length base_syms) unmet;
    owner_tbl = Meth_tbl.create (if index then 256 else 1); base_owners;
    new_owners = []; new_cls = [];
    n_owners = Arena.Owners.length base_owners; last_owner = None;
    last_id = -1;
    run_lo = -1; ranges = []; toks = [];
    ops = Bytes.create (if index then 64 else 0); ops_len = 0 }

let index ?base ~lines ~slots () = make ~index:true ?base ~lines ~slots ()

let text (a : Arena.t) ~lines =
  make ~index:false ~arena:a ~lines ~slots:(Arena.length a) ()

let writes_text w = not w.index
let reuse_owner w meth id = Meth_tbl.replace w.owner_tbl meth id
let lines w = w.line
let slots w = w.slot
let slot_sym w = w.syms.(Bigarray.Array1.get w.sym w.slot)

(* [a] copied into a new array of [n] cells, the rest [fill] *)
let grow a n fill =
  let b = Array.make n fill in
  Array.blit a 0 b 0 (Array.length a);
  b

(* [sym]'s local id, numbering it next if the table lacks it.  The table
   is full until it grows, so [base]'s is never written. *)
let local_id w sym =
  let g = Sym.id sym in
  if g >= Array.length w.local then
    w.local <- grow w.local (max (g + 1) (2 * Array.length w.local)) (-1);
  let l = Array.unsafe_get w.local g in
  if l >= 0 then l
  else begin
    let l = w.n_syms in
    if l = Array.length w.syms then begin
      let n = max 64 (2 * l) in
      w.syms <- grow w.syms n sym;
      w.op_toks <- grow w.op_toks n unmet
    end;
    w.syms.(l) <- sym;
    w.n_syms <- l + 1;
    w.local.(g) <- l;
    l
  end

(* The local ids of the tokens of operand [l], numbered when a keyed slot
   first meets it; each distinct operand is tokenized once a pass. *)
let operand_tokens w l =
  let t = w.op_toks.(l) in
  if t != unmet then t
  else begin
    let t = Array.map (local_id w) (Tokens.of_operand w.syms.(l)) in
    w.op_toks.(l) <- t;
    t
  end

let ensure w n =
  let need = w.tlen + n in
  if need > Bytes.length w.text then begin
    let b = Bytes.create (max need (2 * Bytes.length w.text)) in
    Bytes.blit w.text 0 b 0 w.tlen;
    w.text <- b
  end

let add_string w s =
  if not w.index then begin
    let n = String.length s in
    ensure w n;
    Bytes.unsafe_blit_string s 0 w.text w.tlen n;
    w.tlen <- w.tlen + n
  end

let add_char w c =
  if not w.index then begin
    ensure w 1;
    Bytes.unsafe_set w.text w.tlen c;
    w.tlen <- w.tlen + 1
  end

(* [String.contains s ';'] from [i], without the exception it raises and
   catches when there is none: an index pass asks for every operand of
   every line, and almost none holds one. *)
let rec has_semicolon s i =
  i < String.length s
  && (String.unsafe_get s i = ';' || has_semicolon s (i + 1))

(* An index pass keeps the operands of a line that hold a [';'],
   space-separated, and tokenizes them when the line ends.  A class token
   ends in [';'], and no prefix, mnemonic, separator or register holds
   one; separators are not token characters, so no token spans two
   operands.  That gives the tokens a scan of the whole line would, each
   interned in the same order. *)
let add_operand w s =
  add_string w s;
  if w.index && has_semicolon s 0 then begin
    let n = String.length s in
    let need = w.ops_len + n + 1 in
    if need > Bytes.length w.ops then begin
      let b = Bytes.create (max need (2 * Bytes.length w.ops)) in
      Bytes.blit w.ops 0 b 0 w.ops_len;
      w.ops <- b
    end;
    Bytes.set w.ops w.ops_len ' ';
    Bytes.blit_string s 0 w.ops (w.ops_len + 1) n;
    w.ops_len <- need
  end

(* The local ids of the tokens of the operands kept since the line
   began, which are then dropped. *)
let take_tokens w =
  if w.ops_len = 0 then [||]
  else begin
    let toks = Tokens.of_bytes w.ops ~pos:0 ~len:w.ops_len in
    w.ops_len <- 0;
    Array.map (local_id w) toks
  end

let end_line w =
  w.line <- w.line + 1;
  if not w.index then Bigarray.Array1.set w.offs w.line w.tlen

let header = end_line

(* A method's lines share one signature value, so the table is probed
   once per method, not once per slot. *)
let owner_id w owner cls =
  match w.last_owner with
  | Some o when o == owner -> w.last_id
  | _ ->
    let id =
      match Meth_tbl.find_opt w.owner_tbl owner with
      | Some id -> id
      | None ->
        let id = w.n_owners in
        w.n_owners <- id + 1;
        Meth_tbl.add w.owner_tbl owner id;
        w.new_owners <- owner :: w.new_owners;
        w.new_cls <- cls :: w.new_cls;
        id
    in
    w.last_owner <- Some owner;
    w.last_id <- id;
    id

(* An index pass writes the line's slot; a text pass moves past it, if
   the line has one. *)
let slot_row w ~owner ~cls ~stmt ~cat ~sym ~toks =
  let s = w.slot in
  if w.index then begin
    Bigarray.Array1.set w.line_idx s w.line;
    Bigarray.Array1.set w.stmt_idx s stmt;
    Bigarray.Array1.set w.owner_id s (owner_id w owner cls);
    Bigarray.Array1.set w.cat s cat;
    Bigarray.Array1.set w.sym s sym;
    if Array.length toks > 0 then w.toks <- (s, toks) :: w.toks;
    if w.run_lo < 0 then w.run_lo <- s;
    w.slot <- s + 1
  end
  else if s < Ivec.length w.line_idx && Ivec.get w.line_idx s = w.line then
    w.slot <- s + 1;
  end_line w

(* The operand is numbered first, then its tokens, then those of the
   line's other operands; a slot keeps those its operand lacks, so that
   no token is indexed twice for one slot. *)
let keyed w ~owner ~cls ~stmt ~cat sym =
  if not w.index then slot_row w ~owner ~cls ~stmt ~cat ~sym:(-1) ~toks:[||]
  else begin
    let l = local_id w sym in
    let own = operand_tokens w l in
    let others = take_tokens w in
    (* almost every keyed line has no other token: allocate nothing *)
    let toks =
      if Array.length others = 0 then others
      else
        Array.of_list
          (List.filter
             (fun t -> not (Array.exists (Int.equal t) own))
             (Array.to_list others))
    in
    slot_row w ~owner ~cls ~stmt ~cat ~sym:l ~toks
  end

(* A line whose class tokens would have no slot to be indexed under
   means the slot rule missed an operand: fail rather than lose them. *)
let unkeyed w ~owner ~cls ~stmt ~slot =
  if slot || not w.index then
    slot_row w ~owner ~cls ~stmt ~cat:Arena.cat_none ~sym:(-1)
      ~toks:(take_tokens w)
  else if w.ops_len > 0 then
    invalid_arg "Writer.unkeyed: a line with a class token has no slot"
  else end_line w

let close_run w =
  if w.run_lo >= 0 then begin
    w.ranges <- (w.run_lo, w.slot) :: w.ranges;
    w.run_lo <- -1
  end

(* [n] elements of one vector into another: a single memmove *)
let blit src spos dst dpos n =
  if n > 0 then
    Bigarray.Array1.blit
      (Bigarray.Array1.sub src spos n)
      (Bigarray.Array1.sub dst dpos n)

let copy w (a : Arena.t) ~lines:(llo, lhi) ~slots:(slo, shi) =
  if not w.index then invalid_arg "Writer.copy: a text pass copies nothing";
  close_run w;
  let n = shi - slo in
  blit a.stmt_idx slo w.stmt_idx w.slot n;
  blit a.owner_id slo w.owner_id w.slot n;
  blit a.cat slo w.cat w.slot n;
  blit a.sym slo w.sym w.slot n;
  Ivec.blit_add a.line_idx slo w.line_idx w.slot n (w.line - llo);
  w.line <- w.line + (lhi - llo);
  w.slot <- w.slot + n

let check w ~index what =
  if w.index <> index then
    invalid_arg ("Writer." ^ what ^ ": wrong kind of writer");
  if w.line <> w.n_lines || w.slot <> Ivec.length w.line_idx then
    invalid_arg ("Writer." ^ what ^ ": fewer lines or slots than declared")

let finish_index w =
  check w ~index:true "finish_index";
  close_run w;
  let arena =
    { Arena.line_idx = w.line_idx; stmt_idx = w.stmt_idx;
      owner_id = w.owner_id; cat = w.cat; sym = w.sym;
      syms = Array.sub w.syms 0 w.n_syms;
      owners =
        Arena.Owners.append w.base_owners
          (Array.of_list (List.rev w.new_owners))
          (Array.of_list (List.rev w.new_cls)) }
  in
  let toks = Array.of_list (List.rev w.toks) in
  ( arena,
    { ranges = List.rev w.ranges; op_toks = Array.sub w.op_toks 0 w.n_syms;
      tok_slots = Array.map fst toks; tok_ids = Array.map snd toks } )

let finish_text w =
  check w ~index:false "finish_text";
  Textstore.create ~blob:(Bvec.of_bytes w.text w.tlen) ~offs:w.offs
