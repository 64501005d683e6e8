(** Shared JSON fragment helpers for every hand-rolled writer in the tree
    (resolution traces, Chrome traces, metrics snapshots, bench artifacts).

    The one rule that earns this module its existence: floats are clamped to
    finite values before rendering.  [Printf "%f"] happily prints [inf] and
    [nan], neither of which is valid JSON — a single non-finite elapsed time
    used to poison a whole trace file. *)

let escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
       match c with
       | '"' -> Buffer.add_string b "\\\""
       | '\\' -> Buffer.add_string b "\\\\"
       | '\n' -> Buffer.add_string b "\\n"
       | '\t' -> Buffer.add_string b "\\t"
       | c when Char.code c < 0x20 ->
         Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
       | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(** Clamp a float to a finite value: [nan -> 0.], [±inf -> ±max_float]. *)
let clamp f =
  if Float.is_nan f then 0.0
  else if f = Float.infinity then Float.max_float
  else if f = Float.neg_infinity then -.Float.max_float
  else f

(** Render a float as a JSON number with [dec] decimals (default 1),
    clamping non-finite inputs first. *)
let number ?(dec = 1) f = Printf.sprintf "%.*f" dec (clamp f)

(** ["key": "escaped value"] *)
let str_field k v = Printf.sprintf "\"%s\":\"%s\"" (escape k) (escape v)

(** ["key": n] *)
let int_field k n = Printf.sprintf "\"%s\":%d" (escape k) n

(** ["key": x.y], clamped *)
let num_field ?dec k f =
  Printf.sprintf "\"%s\":%s" (escape k) (number ?dec f)

(* -- Minimal field extraction ----------------------------------------- *)

(* Deliberately small line-oriented readers for exactly the writers above
   (one object per line, no nested strings containing the pattern): enough
   for the exporters' round-trip checks without a JSON dependency. *)

(** First ["key":"..."] string value on [line], unescaped. *)
let field_str line key =
  let pat = Printf.sprintf "\"%s\":\"" key in
  let n = String.length line and np = String.length pat in
  let rec find i =
    if i + np > n then None
    else if String.sub line i np = pat then begin
      let rec close j =
        if j >= n then j
        else if line.[j] = '"' && line.[j - 1] <> '\\' then j
        else close (j + 1)
      in
      let stop = close (i + np) in
      Some (Scanf.unescaped (String.sub line (i + np) (stop - i - np)))
    end
    else find (i + 1)
  in
  find 0

(** First ["key":123] integer value on [line]. *)
let field_int line key =
  let pat = Printf.sprintf "\"%s\":" key in
  let n = String.length line and np = String.length pat in
  let rec find i =
    if i + np > n then None
    else if String.sub line i np = pat then begin
      let rec stop j =
        if j < n && (line.[j] = '-' || (line.[j] >= '0' && line.[j] <= '9'))
        then stop (j + 1)
        else j
      in
      let e = stop (i + np) in
      if e > i + np then int_of_string_opt (String.sub line (i + np) (e - i - np))
      else None
    end
    else find (i + 1)
  in
  find 0
