(** A disassembled (and, if multidex, merged) dex file: the flat array of
    plaintext lines that the bytecode search engine scans, each line tagged
    with its enclosing method, plus the compact hit {!Arena} the engine's
    per-category postings index into and the per-class {!Classmap} the delta
    snapshot path diffs against. *)

(* A once-cell: the classmap is built on first use, under the lock, unless
   the dexfile was made with one. *)
type classmap_cell = { lock : Mutex.t; mutable built : Classmap.t option }

type t = {
  lines : Disasm.line array;
  arena : Arena.t;
  program : Ir.Program.t;
  texts : Textstore.t option;
      (** off-heap line texts of a snapshot-loaded dexfile; [None] when the
          lines were disassembled in-process and carry their own strings *)
  classmap_cell : classmap_cell;
}

let cell built = { lock = Mutex.create (); built }

let of_lines lines program =
  let arena =
    Obs.Span.with_span ~cat:"dex" ~name:"arena"
      ~attrs:[ ("lines", Obs.Span.Int (Array.length lines)) ]
      (fun () -> Arena.of_lines lines)
  in
  { lines; arena; program; texts = None; classmap_cell = cell None }

let of_parts ?texts ~classmap lines arena program =
  (match texts with
   | Some store when Textstore.count store <> Array.length lines ->
     invalid_arg "Dexfile.of_parts: texts and lines differ in count"
   | _ -> ());
  { lines; arena; program; texts; classmap_cell = cell (Some classmap) }

(** A dexfile with no plaintext: the placeholder a warm start installs
    before a snapshot load supplies the real lines and arena, so app
    generation can skip disassembly entirely. *)
let empty p =
  of_parts ~classmap:Classmap.empty [||] (Arena.of_lines [||]) p

let classmap t =
  let c = t.classmap_cell in
  Mutex.protect c.lock (fun () ->
      match c.built with
      | Some cm -> cm
      | None ->
        let cm =
          Obs.Span.with_span ~cat:"dex" ~name:"classmap" (fun () ->
              Classmap.of_lines t.lines t.arena t.program)
        in
        c.built <- Some cm;
        cm)

let of_program p =
  let lines =
    Obs.Span.with_span ~cat:"dex" ~name:"disasm" (fun () ->
        Disasm.program_lines p)
  in
  of_lines lines p

(** Emulate multidex: disassemble each classesN.dex partition separately and
    merge the plaintexts, as BackDroid's preprocessing step does. *)
let of_partitions p partitions =
  let part_lines part =
    List.filter_map
      (fun cls_name ->
         match Ir.Program.find_class p cls_name with
         | Some c when not c.Ir.Jclass.is_system -> Some (Disasm.class_lines c)
         | Some _ | None -> None)
      part
  in
  of_lines (Array.concat (List.concat_map part_lines partitions)) p

let line_count t = Array.length t.lines

(* Lazy, idempotent materialization: a racing domain writes an equal string
   (same store bytes), so either winner is correct. *)
let line_text t i =
  let l = t.lines.(i) in
  let s = l.Disasm.text in
  if s != Textstore.pending then s
  else
    match t.texts with
    | None -> s
    | Some store ->
      let s = Textstore.get store i in
      l.Disasm.text <- s;
      s

let to_string t =
  let buf = Buffer.create (64 * Array.length t.lines) in
  Array.iteri
    (fun i _ ->
       Buffer.add_string buf (line_text t i);
       Buffer.add_char buf '\n')
    t.lines;
  Buffer.contents buf
