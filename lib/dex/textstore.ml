type t = { blob : Bvec.t; offs : Ivec.t }

let create ~blob ~(offs : Ivec.t) =
  let n = Ivec.length offs - 1 in
  if n < 0 then invalid_arg "Textstore.create: empty offsets";
  if Ivec.get offs 0 <> 0 then
    invalid_arg "Textstore.create: offsets must start at 0";
  if Ivec.get offs n <> Bvec.length blob then
    invalid_arg "Textstore.create: offsets inconsistent with blob";
  { blob; offs }

let blob t = t.blob
let offsets t = t.offs
let count t = Ivec.length t.offs - 1
let start t i = Ivec.unsafe_get t.offs i
let length_at t i = Ivec.unsafe_get t.offs (i + 1) - Ivec.unsafe_get t.offs i

let get t i =
  if i < 0 || i >= count t then invalid_arg "Textstore.get";
  Bvec.sub_string t.blob (start t i) (length_at t i)

let index_char t i c =
  let lo = start t i in
  let hi = lo + length_at t i in
  let rec go p =
    if p >= hi then -1
    else if Bvec.unsafe_get t.blob p = c then p - lo
    else go (p + 1)
  in
  go lo

let starts_with t i ~pos ~prefix =
  pos >= 0
  && pos + String.length prefix <= length_at t i
  && Bvec.equal_string t.blob ~pos:(start t i + pos) prefix

(* Every line containing [pat], ascending, each line reported once — the
   residual scan's bulk path.  One Boyer–Moore–Horspool pass over the whole
   concatenated blob instead of a naive loop per line: the bad-character
   table skips ~|pat| bytes per probe, so long opcode patterns touch an
   order of magnitude fewer bytes than a naive scan per line.  A match
   straddling a line boundary belongs to no line and is skipped, matching
   per-line semantics. *)
let iter_matches t ~pat f =
  let lp = String.length pat in
  let nlines = count t in
  if lp = 0 then
    for i = 0 to nlines - 1 do f i done
  else begin
    let blob = t.blob in
    let n = Bvec.length blob in
    if lp <= n then begin
      let skip = Array.make 256 lp in
      for j = 0 to lp - 2 do
        skip.(Char.code (String.unsafe_get pat j)) <- lp - 1 - j
      done;
      let last = String.unsafe_get pat (lp - 1) in
      let rec eq_prefix ms j =
        j >= lp - 1
        || (Bvec.unsafe_get blob (ms + j) = String.unsafe_get pat j
            && eq_prefix ms (j + 1))
      in
      let line = ref 0 in
      let p = ref (lp - 1) in
      while !p < n do
        let c = Bvec.unsafe_get blob !p in
        if c = last && eq_prefix (!p - (lp - 1)) 0 then begin
          let mstart = !p - (lp - 1) in
          while
            !line < nlines - 1 && Ivec.unsafe_get t.offs (!line + 1) <= mstart
          do
            incr line
          done;
          let line_end = Ivec.unsafe_get t.offs (!line + 1) in
          if mstart + lp <= line_end then begin
            f !line;
            (* the rest of this line is already reported: resume where a
               match could first fit in the next line *)
            p := line_end + lp - 1
          end
          else p := !p + 1
        end
        else p := !p + Array.unsafe_get skip (Char.code c)
      done
    end
  end
