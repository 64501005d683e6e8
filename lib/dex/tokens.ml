let token_ok c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
  || c = '/' || c = '_' || c = '$'

let empty : Sym.t array = [||]

let of_bytes b ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length b then
    invalid_arg "Tokens.of_bytes";
  let stop = pos + len in
  let acc = ref [] in
  let i = ref pos in
  while !i < stop do
    let i0 = !i in
    if
      Bytes.unsafe_get b i0 = 'L'
      && (i0 = pos || not (token_ok (Bytes.unsafe_get b (i0 - 1))))
    then begin
      let j = ref (i0 + 1) in
      while !j < stop && token_ok (Bytes.unsafe_get b !j) do incr j done;
      if !j < stop && Bytes.unsafe_get b !j = ';' && !j > i0 + 1 then begin
        acc := Sym.intern (Bytes.sub_string b i0 (!j - i0 + 1)) :: !acc;
        i := !j + 1
      end
      else incr i
    end
    else incr i
  done;
  match List.sort_uniq Sym.compare !acc with
  | [] -> empty
  | toks -> Array.of_list toks

(* Memo: operand sym id -> token array, growable, published under a mutex.
   Reads also lock: an uncontended lock costs the class-tokens postings
   build, which asks once per keyed slot, about 6% over a lock-free read. *)
let lock = Mutex.create ()
let memo : Sym.t array option array ref = ref (Array.make 1024 None)

let of_operand sym =
  let id = Sym.id sym in
  Mutex.lock lock;
  if id >= Array.length !memo then begin
    let m = Array.make (max (id + 1) (2 * Array.length !memo)) None in
    Array.blit !memo 0 m 0 (Array.length !memo);
    memo := m
  end;
  let r =
    match !memo.(id) with
    | Some toks -> toks
    | None ->
      let s = Sym.to_string sym in
      let toks =
        of_bytes (Bytes.unsafe_of_string s) ~pos:0 ~len:(String.length s)
      in
      !memo.(id) <- Some toks;
      toks
  in
  Mutex.unlock lock;
  r
