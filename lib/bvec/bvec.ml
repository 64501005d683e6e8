type t = (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

let create n : t = Bigarray.Array1.create Bigarray.char Bigarray.c_layout n

let length (v : t) = Bigarray.Array1.dim v

let get (v : t) i = Bigarray.Array1.get v i
let set (v : t) i c = Bigarray.Array1.set v i c
let unsafe_get (v : t) i = Bigarray.Array1.unsafe_get v i

let get_u8 v i = Char.code (get v i)
let unsafe_u8 (v : t) i = Char.code (Bigarray.Array1.unsafe_get v i)

(* unaligned native-endian word access, the compiler's own primitives *)
external unsafe_get64 : t -> int -> int64 = "%caml_bigstring_get64u"
external unsafe_set64 : bytes -> int -> int64 -> unit = "%caml_bytes_set64u"
external bytes_get64 : bytes -> int -> int64 = "%caml_bytes_get64u"
external unsafe_put64 : t -> int -> int64 -> unit = "%caml_bigstring_set64u"

let of_bytes b len =
  if len < 0 || len > Bytes.length b then invalid_arg "Bvec.of_bytes";
  let v = create len in
  let words = len / 8 in
  for i = 0 to words - 1 do
    unsafe_put64 v (i * 8) (bytes_get64 b (i * 8))
  done;
  for i = words * 8 to len - 1 do
    Bigarray.Array1.unsafe_set v i (Bytes.unsafe_get b i)
  done;
  v

let of_string s = of_bytes (Bytes.unsafe_of_string s) (String.length s)

let blit_to_bytes v pos b off len =
  if
    len < 0 || pos < 0 || pos + len > length v || off < 0
    || off + len > Bytes.length b
  then invalid_arg "Bvec.blit_to_bytes";
  let words = len / 8 in
  for i = 0 to words - 1 do
    unsafe_set64 b (off + (i * 8)) (unsafe_get64 v (pos + (i * 8)))
  done;
  for i = words * 8 to len - 1 do
    Bytes.unsafe_set b (off + i) (unsafe_get v (pos + i))
  done

let sub_string v pos len =
  if pos < 0 || len < 0 || pos + len > length v then
    invalid_arg "Bvec.sub_string";
  let b = Bytes.create len in
  blit_to_bytes v pos b 0 len;
  Bytes.unsafe_to_string b

let to_string v = sub_string v 0 (length v)

let equal_string v ~pos s =
  let n = String.length s in
  let rec go i =
    i >= n || (unsafe_get v (pos + i) = String.unsafe_get s i && go (i + 1))
  in
  go 0

let page = 4096

let prefault v =
  let n = length v in
  let acc = ref 0 in
  let i = ref 0 in
  while !i < n do
    acc := !acc + unsafe_u8 v !i;
    i := !i + page
  done;
  if n > 0 then acc := !acc + unsafe_u8 v (n - 1);
  !acc
