(* Per-class table over a disassembled dexfile: for each class, its
   contiguous line range, its contiguous arena slot range, and two content
   hashes — the canonical FNV-1a-64 over its rendered lines and the
   structural {!Ir.Irhash} over its IR.  A freshly disassembled dexfile
   builds it on first use ([Dexfile.classmap]), when a snapshot save, a
   delta, a persisted-results export or a freshness check first reads it;
   snapshot-loaded and delta-built dexfiles carry theirs.  The delta
   snapshot path diffs a new build against an old snapshot on the IR hash
   (no rendering needed), then splices lines, arena slots and postings per
   class using the ranges. *)

type t = {
  names : string array;
  line_lo : int array;
  line_hi : int array;
  slot_lo : int array;
  slot_hi : int array;
  text_hash : int64 array;
  ir_hash : int64 array;
  index : (string, int) Hashtbl.t;
}

let length t = Array.length t.names

let build_index names =
  let index = Hashtbl.create (max 16 (Array.length names)) in
  Array.iteri (fun i n -> Hashtbl.replace index n i) names;
  index

let v ~names ~line_lo ~line_hi ~slot_lo ~slot_hi ~text_hash ~ir_hash =
  let n = Array.length names in
  if
    Array.length line_lo <> n || Array.length line_hi <> n
    || Array.length slot_lo <> n || Array.length slot_hi <> n
    || Array.length text_hash <> n || Array.length ir_hash <> n
  then invalid_arg "Classmap.v: column length mismatch";
  { names; line_lo; line_hi; slot_lo; slot_hi; text_hash; ir_hash;
    index = build_index names }

let empty =
  { names = [||]; line_lo = [||]; line_hi = [||]; slot_lo = [||];
    slot_hi = [||]; text_hash = [||]; ir_hash = [||];
    index = Hashtbl.create 1 }

let find t name = Hashtbl.find_opt t.index name

let ir_hash_of t name =
  match find t name with None -> None | Some i -> Some t.ir_hash.(i)

(* FNV-1a-64 over the class's rendered lines, each length-prefixed via
   {!Ir.Irhash.string} so line boundaries can't alias. *)
let text_hash_of_lines lines lo hi =
  let h = ref Ir.Irhash.offset_basis in
  for i = lo to hi - 1 do
    h := Ir.Irhash.string !h (lines.(i) : Disasm.line).text
  done;
  !h

let of_lines (lines : Disasm.line array) (arena : Arena.t) program =
  let names = ref [] and n = ref 0 in
  let line_lo = ref [] and line_hi = ref [] in
  let slot_lo = ref [] and slot_hi = ref [] in
  let text_h = ref [] and ir_h = ref [] in
  let n_lines = Array.length lines in
  let n_slots = Arena.length arena in
  let slot = ref 0 in
  let i = ref 0 in
  while !i < n_lines do
    match lines.(!i).Disasm.owner_cls with
    | None -> incr i
    | Some cls ->
      let lo = !i in
      let same_class (l : Disasm.line) =
        match l.owner_cls with Some c -> String.equal c cls | None -> false
      in
      while !i < n_lines && same_class lines.(!i) do
        incr i
      done;
      let hi = !i in
      (* arena slots are in line order: advance to this class's run *)
      while !slot < n_slots && Ivec.get arena.Arena.line_idx !slot < lo do
        incr slot
      done;
      let slo = !slot in
      while !slot < n_slots && Ivec.get arena.Arena.line_idx !slot < hi do
        incr slot
      done;
      let shi = !slot in
      let ih =
        match Ir.Program.find_class program cls with
        | Some c -> Ir.Irhash.jclass c
        | None -> 0L
      in
      names := cls :: !names;
      line_lo := lo :: !line_lo;
      line_hi := hi :: !line_hi;
      slot_lo := slo :: !slot_lo;
      slot_hi := shi :: !slot_hi;
      text_h := text_hash_of_lines lines lo hi :: !text_h;
      ir_h := ih :: !ir_h;
      incr n
  done;
  let arr l = Array.of_list (List.rev l) in
  let names = arr !names in
  { names;
    line_lo = arr !line_lo; line_hi = arr !line_hi;
    slot_lo = arr !slot_lo; slot_hi = arr !slot_hi;
    text_hash = arr !text_h; ir_hash = arr !ir_h;
    index = build_index names }
