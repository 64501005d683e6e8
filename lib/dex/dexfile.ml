(** A disassembled (and, if multidex, merged) dex file in its one layout:
    line texts in a {!Textstore}, instruction lines in the hit {!Arena},
    plus the per-class {!Classmap} the delta snapshot path diffs against. *)

(* The ranges a render records per class; the hashes wait for the first
   {!classmap} call. *)
type class_range = {
  name : string;
  line_lo : int;
  line_hi : int;
  slot_lo : int;
  slot_hi : int;
}

(* A once-cell: the classmap is hashed on first use, under the lock, unless
   the dexfile was made with one. *)
type classmap_cell = {
  lock : Mutex.t;
  mutable built : Classmap.t option;
  ranges : class_range array;
}

type t = {
  text : Textstore.t;
  arena : Arena.t;
  rendered : Writer.rendered;
  program : Ir.Program.t;
  classmap_cell : classmap_cell;
}

(* Render [classes] in order, recording each one's ranges. *)
let render program classes =
  Obs.Span.with_span ~cat:"dex" ~name:"disasm" (fun () ->
      let lines, slots =
        List.fold_left
          (fun (l, s) c ->
             let cl, cs = Disasm.size c in
             (l + cl, s + cs))
          (0, 0) classes
      in
      let w = Writer.create ~lines ~slots () in
      let ranges =
        Array.of_list classes
        |> Array.map (fun (c : Ir.Jclass.t) ->
            let line_lo = Writer.lines w and slot_lo = Writer.slots w in
            Disasm.render w c;
            { name = c.name; line_lo; line_hi = Writer.lines w; slot_lo;
              slot_hi = Writer.slots w })
      in
      let text, arena, rendered = Writer.finish w in
      { text; arena; rendered; program;
        classmap_cell = { lock = Mutex.create (); built = None; ranges } })

let of_program p = render p (Disasm.app_classes p)

let of_partitions p partitions =
  render p
    (List.concat_map
       (List.filter_map (fun cls_name ->
            match Ir.Program.find_class p cls_name with
            | Some c when not c.Ir.Jclass.is_system -> Some c
            | Some _ | None -> None))
       partitions)

let of_parts ?(rendered = Writer.nothing_rendered) ~classmap text arena
    program =
  { text; arena; rendered; program;
    classmap_cell =
      { lock = Mutex.create (); built = Some classmap; ranges = [||] } }

let empty p =
  let text, arena, rendered =
    Writer.finish (Writer.create ~lines:0 ~slots:0 ())
  in
  of_parts ~rendered ~classmap:Classmap.empty text arena p

let classmap t =
  let c = t.classmap_cell in
  Mutex.protect c.lock (fun () ->
      match c.built with
      | Some cm -> cm
      | None ->
        let cm =
          Obs.Span.with_span ~cat:"dex" ~name:"classmap" (fun () ->
              let col f = Array.map f c.ranges in
              Classmap.v ~names:(col (fun r -> r.name))
                ~line_lo:(col (fun r -> r.line_lo))
                ~line_hi:(col (fun r -> r.line_hi))
                ~slot_lo:(col (fun r -> r.slot_lo))
                ~slot_hi:(col (fun r -> r.slot_hi))
                ~text_hash:
                  (col (fun r ->
                       Textstore.hash_lines t.text r.line_lo r.line_hi))
                ~ir_hash:
                  (col (fun r ->
                       match Ir.Program.find_class t.program r.name with
                       | Some cls -> Ir.Irhash.jclass cls
                       | None -> 0L)))
        in
        c.built <- Some cm;
        cm)

let line_count t = Textstore.count t.text
let line_text t i = Textstore.get t.text i

let iter_tokens t ~lo ~hi f =
  let r = t.rendered in
  if lo < hi && not (List.exists (fun (a, b) -> a <= lo && hi <= b) r.ranges)
  then invalid_arg "Dexfile.iter_tokens: slots not rendered in this process";
  let emit toks s =
    for j = 0 to Array.length toks - 1 do
      f (Sym.id (Array.unsafe_get toks j)) s
    done
  in
  let k = ref 0 and n = Array.length r.tok_slots in
  while !k < n && r.tok_slots.(!k) < lo do incr k done;
  for s = lo to hi - 1 do
    let sym = Bigarray.Array1.unsafe_get t.arena.sym s in
    if sym >= 0 then emit (Tokens.of_operand (Sym.unsafe_of_id sym)) s
    else if !k < n && r.tok_slots.(!k) = s then begin
      emit r.tok_syms.(!k) s;
      incr k
    end
  done

let to_string t =
  let n = line_count t in
  let blob = Textstore.blob t.text in
  let b = Bytes.create (Bvec.length blob + n) in
  for i = 0 to n - 1 do
    let lo = Ivec.get (Textstore.offsets t.text) i in
    let len = Textstore.length_at t.text i in
    Bvec.blit_to_bytes blob lo b (lo + i) len;
    Bytes.set b (lo + i + len) '\n'
  done;
  Bytes.unsafe_to_string b
