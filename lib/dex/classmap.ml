(* Per-class table over a disassembled dexfile: for each class, its
   contiguous line range, its contiguous arena slot range, and the
   structural {!Ir.Irhash} of its IR.  A freshly disassembled dexfile
   hashes on first use ([Dexfile.classmap]), when a snapshot save, a
   delta, a persisted-results export or a freshness check first reads it;
   snapshot-loaded and delta-built dexfiles carry theirs.  The delta
   snapshot path diffs a new build against an old snapshot on the IR hash
   (no rendering needed), then splices arena slots and postings per class
   using the ranges. *)

type t = {
  names : string array;
  line_lo : int array;
  line_hi : int array;
  slot_lo : int array;
  slot_hi : int array;
  ir_hash : int64 array;
  index : (string, int) Hashtbl.t;
}

let length t = Array.length t.names

let build_index names =
  let index = Hashtbl.create (max 16 (Array.length names)) in
  Array.iteri (fun i n -> Hashtbl.replace index n i) names;
  index

let v ~names ~line_lo ~line_hi ~slot_lo ~slot_hi ~ir_hash =
  let n = Array.length names in
  if
    Array.length line_lo <> n || Array.length line_hi <> n
    || Array.length slot_lo <> n || Array.length slot_hi <> n
    || Array.length ir_hash <> n
  then invalid_arg "Classmap.v: column length mismatch";
  { names; line_lo; line_hi; slot_lo; slot_hi; ir_hash;
    index = build_index names }

let empty =
  { names = [||]; line_lo = [||]; line_hi = [||]; slot_lo = [||];
    slot_hi = [||]; ir_hash = [||]; index = Hashtbl.create 1 }

let find t name = Hashtbl.find_opt t.index name

let ir_hash_of t name =
  match find t name with None -> None | Some i -> Some t.ir_hash.(i)
