(** A disassembled (and, if multidex, merged) dex file in its one layout:
    the hit {!Arena} an index pass writes, the line texts a text pass
    writes on first read, and the per-class {!Classmap} the delta snapshot
    path diffs against. *)

(* A class an index pass walked, and the ranges it wrote. *)
type class_range = {
  cls : Ir.Jclass.t;
  line_lo : int;
  line_hi : int;
  slot_lo : int;
  slot_hi : int;
}

(* The text waits for its first read.  The class map of an index pass
   waits too; a dexfile made from parts holds it from the start. *)
type cells = {
  ranges : class_range array;  (* in line order; empty unless indexed here *)
  text : Textstore.t Parallel.Once.t;
  classmap : Classmap.t Parallel.Once.t;
}

type t = {
  lines : int;
  arena : Arena.t;
  rendered : Writer.rendered;
  program : Ir.Program.t;
  cells : cells;
}

(* Index [classes] in order, recording each one's ranges. *)
let index program classes =
  Obs.Span.with_span ~cat:"dex" ~name:"disasm" (fun () ->
      let lines, slots =
        List.fold_left
          (fun (l, s) c ->
             let cl, cs = Disasm.size c in
             (l + cl, s + cs))
          (0, 0) classes
      in
      let w = Writer.index ~lines ~slots () in
      let ranges =
        Array.of_list classes
        |> Array.map (fun cls ->
            let line_lo = Writer.lines w and slot_lo = Writer.slots w in
            Disasm.render w cls;
            { cls; line_lo; line_hi = Writer.lines w; slot_lo;
              slot_hi = Writer.slots w })
      in
      let arena, rendered = Writer.finish_index w in
      { lines; arena; rendered; program;
        cells =
          { ranges; text = Parallel.Once.make ();
            classmap = Parallel.Once.make () } })

let of_program p = index p (Disasm.app_classes p)

let of_partitions p partitions =
  index p
    (List.concat_map
       (List.filter_map (fun cls_name ->
            match Ir.Program.find_class p cls_name with
            | Some c when not c.Ir.Jclass.is_system -> Some c
            | Some _ | None -> None))
       partitions)

let of_parts ?(rendered = Writer.nothing_rendered) ~lines ~classmap arena
    program =
  { lines; arena; rendered; program;
    cells =
      { ranges = [||]; text = Parallel.Once.make ();
        classmap = Parallel.Once.filled classmap } }

let empty p =
  let arena, rendered =
    Writer.finish_index (Writer.index ~lines:0 ~slots:0 ())
  in
  of_parts ~rendered ~lines:0 ~classmap:Classmap.empty arena p

let classmap t =
  Parallel.Once.get t.cells.classmap (fun () ->
      Obs.Span.with_span ~cat:"dex" ~name:"classmap" (fun () ->
          let col f = Array.map f t.cells.ranges in
          Classmap.v ~names:(col (fun r -> r.cls.Ir.Jclass.name))
            ~line_lo:(col (fun r -> r.line_lo))
            ~line_hi:(col (fun r -> r.line_hi))
            ~slot_lo:(col (fun r -> r.slot_lo))
            ~slot_hi:(col (fun r -> r.slot_hi))
            ~ir_hash:(col (fun r -> Ir.Irhash.jclass r.cls))))

(* Entry [i] of a layout built elsewhere names a class of the program
   whose IR it was indexed from: the program's class must render the
   entry's line and slot counts and have its IR hash, or its text would
   not be the text the arena indexes. *)
let mapped_class t (cm : Classmap.t) i =
  let name = cm.Classmap.names.(i) in
  let matches c =
    Disasm.size c
    = ( cm.Classmap.line_hi.(i) - cm.Classmap.line_lo.(i),
        cm.Classmap.slot_hi.(i) - cm.Classmap.slot_lo.(i) )
    && Int64.equal (Ir.Irhash.jclass c) cm.Classmap.ir_hash.(i)
  in
  match Ir.Program.find_class t.program name with
  | Some c when matches c -> c
  | Some _ | None ->
    invalid_arg
      (Printf.sprintf
         "Dexfile.text: the program's class %s does not match its class map \
          entry"
         name)

(* The last of the [n] ascending keys [key 0 .. key (n-1)] at most [x],
   [key 0] being at most [x]. *)
let last_at_most key n x =
  let lo = ref 0 and hi = ref n in
  while !hi - !lo > 1 do
    let mid = (!lo + !hi) / 2 in
    if key mid <= x then lo := mid else hi := mid
  done;
  !lo

(* The first line and the class of the class whose lines hold [line]. *)
let class_at t line =
  let rs = t.cells.ranges in
  if Array.length rs > 0 then
    let i = last_at_most (fun i -> rs.(i).line_lo) (Array.length rs) line in
    (rs.(i).line_lo, rs.(i).cls)
  else
    let cm = classmap t in
    let lo = cm.Classmap.line_lo in
    let i = last_at_most (Array.get lo) (Array.length lo) line in
    (lo.(i), mapped_class t cm i)

let locator t =
  let lo = ref 0 and cls = ref "" and owners = ref [||] in
  fun line ->
    if line < !lo || line >= !lo + Array.length !owners then begin
      let l, c = class_at t line in
      lo := l;
      cls := c.Ir.Jclass.name;
      owners := Disasm.line_owners c
    end;
    Option.map (fun (m, stmt) -> (m, !cls, stmt)) !owners.(line - !lo)

let m_renders = Obs.Metrics.counter "dex.text.renders"

(* A text pass over the classes in line order: those an index pass
   walked, or else the class map's, checked against the program. *)
let text t =
  Parallel.Once.get t.cells.text (fun () ->
      Obs.Span.with_span ~cat:"dex" ~name:"text" (fun () ->
          Obs.Metrics.incr m_renders;
          let w = Writer.text t.arena ~lines:t.lines in
          if Array.length t.cells.ranges > 0 then
            Array.iter (fun r -> Disasm.render w r.cls) t.cells.ranges
          else begin
            let cm = classmap t in
            for i = 0 to Classmap.length cm - 1 do
              Disasm.render w (mapped_class t cm i)
            done
          end;
          Writer.finish_text w))

let line_count t = t.lines
let line_text t i = Textstore.get (text t) i

let iter_tokens t ~lo ~hi f =
  let r = t.rendered in
  if lo < hi && not (List.exists (fun (a, b) -> a <= lo && hi <= b) r.ranges)
  then invalid_arg "Dexfile.iter_tokens: slots not rendered in this process";
  let emit toks s =
    for j = 0 to Array.length toks - 1 do
      f (Array.unsafe_get toks j) s
    done
  in
  let k = ref 0 and n = Array.length r.tok_slots in
  while !k < n && r.tok_slots.(!k) < lo do incr k done;
  for s = lo to hi - 1 do
    let sym = Bigarray.Array1.unsafe_get t.arena.sym s in
    if sym >= 0 then emit r.op_toks.(sym) s;
    if !k < n && r.tok_slots.(!k) = s then begin
      emit r.tok_ids.(!k) s;
      incr k
    end
  done

let to_string t =
  let text = text t in
  let n = line_count t in
  let blob = Textstore.blob text in
  let b = Bytes.create (Bvec.length blob + n) in
  for i = 0 to n - 1 do
    let lo = Ivec.get (Textstore.offsets text) i in
    let len = Textstore.length_at text i in
    Bvec.blit_to_bytes blob lo b (lo + i) len;
    Bytes.set b (lo + i + len) '\n'
  done;
  Bytes.unsafe_to_string b
