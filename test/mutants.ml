(* Mutations of a valid input for the properties at an untrusted boundary
   (persisted results strings, rule sources, wire frames): byte flips,
   truncation, and a huge, negative or overlong number spliced where a
   decimal number starts.  Each boundary's test adds its own mutations
   beside these. *)

type t =
  | Flips of (int * int) list  (* position, nonzero xor mask *)
  | Cut of int                 (* keep this many bytes *)
  | Splice of int * int        (* nth number start, payload index *)

(* Ints spliced over a number: huge, negative or overlong. *)
let spliced =
  [| "4611686018427387903"; "4611686018427387904"; "99999999999999999999";
     "9223372036854775807"; "-1"; "-4611686018427387904";
     "-99999999999999999999"; "0000000000000000000000000000001";
     String.make 40 '9' |]

(* Positions where a number starts: a digit or '-' after a non-digit. *)
let field_starts s =
  List.filter
    (fun i ->
       (match s.[i] with '0' .. '9' | '-' -> true | _ -> false)
       && (i = 0 || match s.[i - 1] with '0' .. '9' -> false | _ -> true))
    (List.init (String.length s) Fun.id)

(* [payload] in place of the number that starts at [i]. *)
let splice s i payload =
  let digit j = match s.[j] with '0' .. '9' -> true | _ -> false in
  let j = ref (i + 1) in
  while !j < String.length s && digit !j do incr j done;
  String.sub s 0 i ^ payload ^ String.sub s !j (String.length s - !j)

let apply s = function
  | Flips fl when s <> "" ->
    let b = Bytes.of_string s in
    List.iter
      (fun (p, x) ->
         let p = p mod Bytes.length b in
         Bytes.set b p (Char.chr (Char.code (Bytes.get b p) lxor x)))
      fl;
    Bytes.to_string b
  | Flips _ -> s
  | Cut n -> String.sub s 0 (n mod (String.length s + 1))
  | Splice (k, v) ->
    (match field_starts s with
     | [] -> s
     | starts ->
       splice s
         (List.nth starts (k mod List.length starts))
         spliced.(v mod Array.length spliced))

let gen =
  let open QCheck.Gen in
  oneof
    [ map (fun fl -> Flips fl)
        (list_size (int_range 1 3) (pair nat (int_range 1 255)));
      map (fun n -> Cut n) nat;
      map2 (fun k v -> Splice (k, v)) nat nat ]
