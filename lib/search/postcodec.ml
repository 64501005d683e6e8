(* See postcodec.mli for the wire format.  Encoding is deterministic — the
   varint-vs-bitmap choice is a pure function of the run — so every
   producer of the same slots emits the same bytes. *)

let tag_varint = 0
let tag_bitmap = 1

(* -- varints (LEB128, low 7 bits first) ------------------------------- *)

let put_varint buf n =
  let n = ref n in
  while !n >= 0x80 do
    Buffer.add_char buf (Char.chr (0x80 lor (!n land 0x7f)));
    n := !n lsr 7
  done;
  Buffer.add_char buf (Char.chr !n)

(* Fast unchecked decode: data was validated at load time. *)
let get_varint (b : Bvec.t) pos =
  let x = ref 0 and shift = ref 0 and p = ref pos in
  let continue_ = ref true in
  while !continue_ do
    let byte = Bvec.unsafe_u8 b !p in
    incr p;
    x := !x lor ((byte land 0x7f) lsl !shift);
    shift := !shift + 7;
    if byte < 0x80 then continue_ := false
  done;
  (!x, !p)

(* Careful decode for validation: bounds-checked, and refuses a value that
   does not fit a non-negative int: a tenth byte, or a ninth byte that sets
   bit 62, OCaml's sign bit.  An overlong encoding (a zero high group) is
   accepted; it decodes to the same value as the short one. *)
let checked_varint (b : Bvec.t) pos ~limit =
  let rec go x shift p =
    if p >= limit then Error "varint truncated"
    else if shift > 62 then Error "varint overflow"
    else
      let byte = Bvec.get_u8 b p in
      let x = x lor ((byte land 0x7f) lsl shift) in
      if x < 0 then Error "varint overflow"
      else if byte < 0x80 then Ok (x, p + 1)
      else go x (shift + 7) (p + 1)
  in
  go 0 0 pos

(* -- encoding --------------------------------------------------------- *)

(* Bitmap payload: 8 bytes per 64-slot word over [first, last].  Chosen iff
   it cannot be larger than the varint form, whose is-never-smaller lower
   bound is one byte per slot. *)
let bitmap_words ~first ~last = ((last - first) / 64) + 1

let encode buf (slots : Ivec.t) ~lo ~hi =
  let n = hi - lo in
  put_varint buf n;
  if n > 0 then begin
    let first = Ivec.get slots lo and last = Ivec.get slots (hi - 1) in
    let nwords = bitmap_words ~first ~last in
    if 8 * nwords <= n then begin
      Buffer.add_char buf (Char.chr tag_bitmap);
      put_varint buf first;
      put_varint buf nwords;
      (* little-endian words: bit [d] of the bitmap is bit [d land 7] of
         byte [d lsr 3] *)
      let words = Bytes.make (8 * nwords) '\000' in
      for i = lo to hi - 1 do
        let d = Ivec.unsafe_get slots i - first in
        let b = d lsr 3 in
        Bytes.unsafe_set words b
          (Char.unsafe_chr
             (Char.code (Bytes.unsafe_get words b) lor (1 lsl (d land 7))))
      done;
      Buffer.add_bytes buf words
    end
    else begin
      Buffer.add_char buf (Char.chr tag_varint);
      put_varint buf first;
      let prev = ref first in
      for i = lo + 1 to hi - 1 do
        let s = Ivec.unsafe_get slots i in
        put_varint buf (s - !prev - 1);
        prev := s
      done
    end
  end

let encode_array buf a =
  encode buf (Ivec.of_array a) ~lo:0 ~hi:(Array.length a)

(* -- decoding --------------------------------------------------------- *)

let count b ~pos = fst (get_varint b pos)

(* Iterate one word of bitmap as two 32-bit halves — no Int64 allocation
   per bit test once flambda-less OCaml unboxes the locals. *)
let iter_word f base w =
  let lo = Int64.to_int (Int64.logand w 0xFFFFFFFFL) in
  let hi = Int64.to_int (Int64.shift_right_logical w 32) in
  let half off bits =
    let bits = ref bits and j = ref 0 in
    while !bits <> 0 do
      if !bits land 1 <> 0 then f (base + off + !j);
      bits := !bits lsr 1;
      incr j
    done
  in
  half 0 lo;
  half 32 hi

let get_word_le (b : Bvec.t) pos =
  let u8 i = Int64.of_int (Bvec.unsafe_u8 b (pos + i)) in
  let ( ||| ) = Int64.logor and ( <<< ) = Int64.shift_left in
  u8 0 ||| (u8 1 <<< 8) ||| (u8 2 <<< 16) ||| (u8 3 <<< 24)
  ||| (u8 4 <<< 32) ||| (u8 5 <<< 40) ||| (u8 6 <<< 48) ||| (u8 7 <<< 56)

let iter b ~pos f =
  let n, p = get_varint b pos in
  if n > 0 then begin
    let tag = Bvec.unsafe_u8 b p in
    let p = p + 1 in
    if tag = tag_bitmap then begin
      let first, p = get_varint b p in
      let nwords, p = get_varint b p in
      for w = 0 to nwords - 1 do
        let word = get_word_le b (p + (8 * w)) in
        if word <> 0L then iter_word f (first + (64 * w)) word
      done
    end
    else begin
      let first, p = get_varint b p in
      f first;
      let prev = ref first and p = ref p in
      for _ = 2 to n do
        let d, p' = get_varint b !p in
        p := p';
        let s = !prev + d + 1 in
        f s;
        prev := s
      done
    end
  end

(* -- validation ------------------------------------------------------- *)

let ( let* ) = Result.bind

let validate b ~pos ~limit ~max_slot =
  let* n, p = checked_varint b pos ~limit in
  if n = 0 then
    if p = limit then Ok (0, p) else Error "trailing bytes after empty run"
  else if p >= limit then Error "missing tag"
  else
    let tag = Bvec.get_u8 b p in
    let p = p + 1 in
    let* endp =
      if tag = tag_bitmap then
        let* first, p = checked_varint b p ~limit in
        let* nwords, p = checked_varint b p ~limit in
        if first > max_slot then Error "first slot out of range"
        else if nwords <= 0 || nwords > (max_slot / 64) + 1 then
          Error "bitmap word count out of range"
        else if p + (8 * nwords) > limit then Error "bitmap truncated"
        else begin
          (* population must match the declared count; every set bit must
             be a valid slot; the first and last words must actually carry
             the run's endpoints *)
          let popcount = ref 0 and ok = ref true in
          for w = 0 to nwords - 1 do
            let word = get_word_le b (p + (8 * w)) in
            if word <> 0L then
              iter_word
                (fun s ->
                   incr popcount;
                   if s > max_slot then ok := false)
                (first + (64 * w))
                word
          done;
          if not !ok then Error "bitmap slot out of range"
          else if !popcount <> n then Error "bitmap population mismatch"
          else if
            Int64.logand (get_word_le b p) 1L <> 1L
            || Int64.equal (get_word_le b (p + (8 * (nwords - 1)))) 0L
          then Error "bitmap not anchored"
          else Ok (p + (8 * nwords))
        end
      else if tag = tag_varint then begin
        let* first, p = checked_varint b p ~limit in
        if first > max_slot then Error "first slot out of range"
        else
          (* [d > max_slot - prev - 1] cannot overflow: [prev <= max_slot] *)
          let rec deltas prev p k =
            if k = 0 then Ok p
            else
              let* d, p = checked_varint b p ~limit in
              if d > max_slot - prev - 1 then Error "slot out of range"
              else deltas (prev + d + 1) p (k - 1)
          in
          deltas first p (n - 1)
      end
      else Error (Printf.sprintf "unknown run tag %d" tag)
    in
    if endp = limit then Ok (n, endp) else Error "trailing bytes after run"
