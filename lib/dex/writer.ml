(* The one writer of the dexfile layout, in three modes.  An index pass
   writes the arena columns and the rendered slots' class tokens, and no
   text; a text pass writes the line texts over a layout an index pass
   wrote, reading each keyed slot's operand from its arena and writing no
   column; a delta's writer does both, and copies blocks of an old layout.

   Columns are written in place at their final size; texts go into a
   growable heap buffer copied into the store once at the end, so the blob
   is the texts' one off-heap allocation, made at its final size.  OCaml 5
   charges bigarray memory to major-GC pacing: writing texts into presized
   off-heap vectors was measured at about twice the major GC cycles per
   app. *)

type rendered = {
  ranges : (int * int) list;
  tok_slots : int array;
  tok_syms : Sym.t array array;
}

let nothing_rendered = { ranges = []; tok_slots = [||]; tok_syms = [||] }

module Meth_tbl = Ir.Jsig.Meth_tbl

type t = {
  index : bool;  (* writes the columns and the rendered slots' tokens *)
  texts : bool;  (* writes the line texts *)
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
  owner_tbl : int Meth_tbl.t;
  base_owners : Ir.Jsig.meth array;
  base_cls : string array;
  mutable new_owners : Ir.Jsig.meth list;  (* newest first *)
  mutable new_cls : string list;
  mutable n_owners : int;
  mutable last_owner : Ir.Jsig.meth option;
  mutable last_id : int;
  mutable run_lo : int;  (* first slot of the open rendered range, or -1 *)
  mutable ranges : (int * int) list;  (* newest first *)
  mutable toks : (int * Sym.t array) list;  (* newest first *)
  mutable ops : Bytes.t;  (* the line's token-bearing operands, see below *)
  mutable ops_len : int;
}

(* generated apps' lines average about 37 bytes: the buffer rarely grows *)
let bytes_per_line = 48

let make ~index ~texts ?base ?arena ~lines ~slots () =
  let base_owners, base_cls =
    match base with
    | Some (a : Arena.t) -> (a.owners, a.owner_cls)
    | None -> ([||], [||])
  in
  let offs = Ivec.create (if texts then lines + 1 else 0) in
  if texts then Bigarray.Array1.set offs 0 0;
  let col (read : Arena.t -> Ivec.t) =
    match arena with Some a -> read a | None -> Ivec.create slots
  in
  { index; texts; n_lines = lines;
    text = Bytes.create (if texts then max 64 (bytes_per_line * lines) else 0);
    tlen = 0; offs; line = 0;
    line_idx = col (fun a -> a.line_idx); stmt_idx = col (fun a -> a.stmt_idx);
    owner_id = col (fun a -> a.owner_id); cat = col (fun a -> a.cat);
    sym = col (fun a -> a.sym); slot = 0;
    owner_tbl = Meth_tbl.create (if index then 256 else 1); base_owners;
    base_cls; new_owners = []; new_cls = [];
    n_owners = Array.length base_owners; last_owner = None; last_id = -1;
    run_lo = -1; ranges = []; toks = [];
    ops = Bytes.create (if index then 64 else 0); ops_len = 0 }

let create ?base ~lines ~slots () =
  make ~index:true ~texts:true ?base ~lines ~slots ()

let index ~lines ~slots = make ~index:true ~texts:false ~lines ~slots ()

let text (a : Arena.t) ~lines =
  make ~index:false ~texts:true ~arena:a ~lines ~slots:(Arena.length a) ()

let records_slots w = w.index
let writes_text w = w.texts
let reuse_owner w meth id = Meth_tbl.replace w.owner_tbl meth id
let lines w = w.line
let slots w = w.slot
let slot_sym w = Sym.unsafe_of_id (Bigarray.Array1.get w.sym w.slot)

let ensure w n =
  let need = w.tlen + n in
  if need > Bytes.length w.text then begin
    let b = Bytes.create (max need (2 * Bytes.length w.text)) in
    Bytes.blit w.text 0 b 0 w.tlen;
    w.text <- b
  end

let add_string w s =
  if w.texts then begin
    let n = String.length s in
    ensure w n;
    Bytes.unsafe_blit_string s 0 w.text w.tlen n;
    w.tlen <- w.tlen + n
  end

let add_char w c =
  if w.texts then begin
    ensure w 1;
    Bytes.unsafe_set w.text w.tlen c;
    w.tlen <- w.tlen + 1
  end

(* An index pass keeps the operands of an unkeyed line that hold a [';'],
   space-separated, and tokenizes them when the line ends.  A class token
   ends in [';'], and no prefix, mnemonic, separator or register holds
   one; separators are not token characters, so no token spans two
   operands.  That gives the tokens a scan of the whole line would, each
   interned in the same order. *)
let add_operand w s =
  add_string w s;
  if w.index && String.contains s ';' then begin
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

let end_line w =
  w.line <- w.line + 1;
  if w.texts then Bigarray.Array1.set w.offs w.line w.tlen

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

let slot_row w ~owner ~cls ~stmt ~cat ~sym =
  let s = w.slot in
  if w.index then begin
    Bigarray.Array1.set w.line_idx s w.line;
    Bigarray.Array1.set w.stmt_idx s stmt;
    Bigarray.Array1.set w.owner_id s (owner_id w owner cls);
    Bigarray.Array1.set w.cat s cat;
    Bigarray.Array1.set w.sym s sym;
    if w.run_lo < 0 then w.run_lo <- s
  end;
  w.slot <- s + 1;
  end_line w

(* The operand is tokenized now although its tokens are not kept: this
   interns the tokens in render order, and snapshots store symbol ids. *)
let keyed w ~owner ~cls ~stmt ~cat sym =
  if w.index then ignore (Tokens.of_operand sym : Sym.t array);
  slot_row w ~owner ~cls ~stmt ~cat ~sym:(Sym.id sym)

let unkeyed w ~owner ~cls ~stmt =
  if w.ops_len > 0 then begin
    let toks = Tokens.of_bytes w.ops ~pos:0 ~len:w.ops_len in
    if Array.length toks > 0 then w.toks <- (w.slot, toks) :: w.toks;
    w.ops_len <- 0
  end;
  slot_row w ~owner ~cls ~stmt ~cat:Arena.cat_none ~sym:(-1)

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

let copy w text (a : Arena.t) ~lines:(llo, lhi) ~slots:(slo, shi) =
  if not (w.index && w.texts) then invalid_arg "Writer.copy: wrong kind of writer";
  close_run w;
  let offs = Textstore.offsets text in
  let t_lo = Ivec.get offs llo in
  let len = Ivec.get offs lhi - t_lo in
  ensure w len;
  Bvec.blit_to_bytes (Textstore.blob text) t_lo w.text w.tlen len;
  Ivec.blit_add offs (llo + 1) w.offs (w.line + 1) (lhi - llo) (w.tlen - t_lo);
  w.tlen <- w.tlen + len;
  let n = shi - slo in
  blit a.stmt_idx slo w.stmt_idx w.slot n;
  blit a.owner_id slo w.owner_id w.slot n;
  blit a.cat slo w.cat w.slot n;
  blit a.sym slo w.sym w.slot n;
  Ivec.blit_add a.line_idx slo w.line_idx w.slot n (w.line - llo);
  w.line <- w.line + (lhi - llo);
  w.slot <- w.slot + n

let check w ~index ~texts what =
  if w.index <> index || w.texts <> texts then
    invalid_arg ("Writer." ^ what ^ ": wrong kind of writer");
  if w.line <> w.n_lines || w.slot <> Ivec.length w.line_idx then
    invalid_arg ("Writer." ^ what ^ ": fewer lines or slots than declared")

let store w = Textstore.create ~blob:(Bvec.of_bytes w.text w.tlen) ~offs:w.offs

let layout w =
  close_run w;
  let arena =
    { Arena.line_idx = w.line_idx; stmt_idx = w.stmt_idx;
      owner_id = w.owner_id; cat = w.cat; sym = w.sym;
      owners =
        Array.append w.base_owners (Array.of_list (List.rev w.new_owners));
      owner_cls = Array.append w.base_cls (Array.of_list (List.rev w.new_cls))
    }
  in
  let toks = Array.of_list (List.rev w.toks) in
  ( arena,
    { ranges = List.rev w.ranges; tok_slots = Array.map fst toks;
      tok_syms = Array.map snd toks } )

let finish w =
  check w ~index:true ~texts:true "finish";
  let arena, rendered = layout w in
  (store w, arena, rendered)

let finish_index w =
  check w ~index:true ~texts:false "finish_index";
  layout w

let finish_text w =
  check w ~index:false ~texts:true "finish_text";
  store w
