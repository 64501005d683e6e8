(** Hash-consed interned symbols.  See the interface for the contract.

    Layout: ids are dense ints; the id → string store is a spine of chunks
    of doubling size (chunk [k] holds [first_chunk * 2^k] slots), each
    published with [Atomic.set] after its strings are written under the
    intern mutex.  Readers never lock: [Atomic.get] on the chunk pointer is
    the acquire that makes the string writes visible, so {!to_string} is
    safe from any domain that legitimately holds a symbol. *)

type t = int

let first_chunk_bits = 10
let first_chunk = 1 lsl first_chunk_bits (* 1024 *)
let spine_len = 32

(* chunk k covers ids [first_chunk * (2^k - 1), first_chunk * (2^(k+1) - 1)) *)
let spine : string array option Atomic.t array =
  Array.init spine_len (fun _ -> Atomic.make None)

let lock = Mutex.create ()
let table : (string, int) Hashtbl.t = Hashtbl.create 4096
let next = ref 0

(* Decompose an id into (chunk, offset).  Shifting the biased id into the
   first-chunk range makes the chunk index a log2, taken from the first
   chunk's bit up: ids below [first_chunk] take no iteration. *)
let rec log2 n acc = if n <= 1 then acc else log2 (n lsr 1) (acc + 1)

let locate id =
  if id < 0 then invalid_arg "Sym: negative id";
  let biased = id + first_chunk in
  let chunk = log2 (biased lsr first_chunk_bits) 0 in
  (chunk, biased - (first_chunk lsl chunk))

let to_string id =
  let chunk, offset = locate id in
  match Atomic.get spine.(chunk) with
  | Some a -> Array.unsafe_get a offset
  | None -> invalid_arg "Sym.to_string: unknown symbol"

(* Under the lock: store [s] as the next id, in its chunk (made if
   absent), without publishing the slot. *)
let add_next s =
  let id = !next in
  let chunk, offset = locate id in
  let arr =
    match Atomic.get spine.(chunk) with
    | Some a -> a
    | None ->
      let a = Array.make (first_chunk lsl chunk) "" in
      (* writes to [a] below race with nothing: the chunk is published
         (and hence readable) only via this Atomic.set *)
      Atomic.set spine.(chunk) (Some a);
      a
  in
  arr.(offset) <- s;
  Hashtbl.add table s id;
  next := id + 1;
  id

(* Republish the chunks of ids [\[lo, !next)], so their slot writes are
   ordered before any reader's acquire. *)
let publish_from lo =
  if !next > lo then
    for c = fst (locate lo) to fst (locate (!next - 1)) do
      Atomic.set spine.(c) (Atomic.get spine.(c))
    done

let intern s =
  Mutex.lock lock;
  match Hashtbl.find_opt table s with
  | Some id ->
    Mutex.unlock lock;
    id
  | None ->
    let id = add_next s in
    publish_from id;
    Mutex.unlock lock;
    id

let intern_slices (blob : Bvec.t) (offsets : Ivec.t) =
  let n = Ivec.length offsets - 1 in
  let ok = ref (n >= 0 && Ivec.get offsets 0 >= 0) in
  for i = 0 to n - 1 do
    if Ivec.get offsets (i + 1) < Ivec.get offsets i then ok := false
  done;
  if not (!ok && Ivec.get offsets n <= Bvec.length blob) then
    invalid_arg "Sym.intern_slices";
  let ids = Array.make n 0 in
  Mutex.lock lock;
  let first_new = !next in
  for i = 0 to n - 1 do
    let lo = Ivec.unsafe_get offsets i in
    let s = Bvec.sub_string blob lo (Ivec.unsafe_get offsets (i + 1) - lo) in
    Array.unsafe_set ids i
      (match Hashtbl.find_opt table s with
       | Some id -> id
       | None -> add_next s)
  done;
  publish_from first_new;
  Mutex.unlock lock;
  ids

let find s =
  Mutex.lock lock;
  let r = Hashtbl.find_opt table s in
  Mutex.unlock lock;
  r

let equal (a : t) (b : t) = a = b
let hash (a : t) = a
let id (a : t) = a

let interned () =
  Mutex.lock lock;
  let n = !next in
  Mutex.unlock lock;
  n

let memo (type a) ?(size = 256) ~(hash : a -> int) ~(equal : a -> a -> bool)
    (render : a -> string) =
  let module T =
    Parallel.Once.Make (Hashtbl.Make (struct
      type t = a
      let hash = hash
      let equal = equal
    end))
  in
  let tbl = T.create size in
  let compute x = intern (render x) in
  fun x -> T.find_or_add tbl x compute
