let token_ok c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
  || c = '/' || c = '_' || c = '$'

let empty : Sym.t array = [||]

let of_bytes b ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length b then
    invalid_arg "Tokens.of_bytes";
  let stop = pos + len in
  let acc = ref [] in  (* distinct, newest first *)
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
        let tok = Sym.intern (Bytes.sub_string b i0 (!j - i0 + 1)) in
        if not (List.exists (Sym.equal tok) !acc) then acc := tok :: !acc;
        i := !j + 1
      end
      else incr i
    end
    else incr i
  done;
  match !acc with
  | [] -> empty
  | toks -> Array.of_list (List.rev toks)

let of_operand sym =
  let s = Sym.to_string sym in
  of_bytes (Bytes.unsafe_of_string s) ~pos:0 ~len:(String.length s)
