type t = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

let create n : t = Bigarray.Array1.create Bigarray.int Bigarray.c_layout n

let make n x =
  let v = create n in
  Bigarray.Array1.fill v x;
  v

let length (v : t) = Bigarray.Array1.dim v

let get (v : t) i = Bigarray.Array1.get v i
let set (v : t) i x = Bigarray.Array1.set v i x
let unsafe_get (v : t) i = Bigarray.Array1.unsafe_get v i

let blit_add (src : t) src_pos (dst : t) dst_pos len d =
  if
    len < 0 || src_pos < 0 || dst_pos < 0
    || src_pos + len > length src
    || dst_pos + len > length dst
  then invalid_arg "Ivec.blit_add";
  for i = 0 to len - 1 do
    Bigarray.Array1.unsafe_set dst (dst_pos + i)
      (Bigarray.Array1.unsafe_get src (src_pos + i) + d)
  done

let of_array a =
  let n = Array.length a in
  let v = create n in
  for i = 0 to n - 1 do
    Bigarray.Array1.unsafe_set v i (Array.unsafe_get a i)
  done;
  v

let to_array v = Array.init (length v) (fun i -> unsafe_get v i)

let iteri f v =
  for i = 0 to length v - 1 do
    f i (unsafe_get v i)
  done

let equal a b =
  length a = length b
  &&
  let rec go i = i >= length a || (unsafe_get a i = unsafe_get b i && go (i + 1)) in
  go 0

(* one element per 4 KiB page: an int element is 8 bytes *)
let words_per_page = 512

let prefault v =
  let n = length v in
  let acc = ref 0 in
  let i = ref 0 in
  while !i < n do
    acc := !acc lxor unsafe_get v !i;
    i := !i + words_per_page
  done;
  if n > 0 then acc := !acc lxor unsafe_get v (n - 1);
  !acc

let find_sorted v x =
  let rec bs lo hi =
    if lo >= hi then -1
    else
      let mid = (lo + hi) / 2 in
      let m = unsafe_get v mid in
      if m = x then mid else if m < x then bs (mid + 1) hi else bs lo mid
  in
  bs 0 (length v)
