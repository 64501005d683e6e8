type error =
  | Bad_magic
  | Bad_version of int
  | Truncated
  | Bad_checksum
  | Corrupt of string

let error_to_string = function
  | Bad_magic -> "bad magic (not a snapshot file)"
  | Bad_version v -> Printf.sprintf "unsupported format version %d" v
  | Truncated -> "truncated file"
  | Bad_checksum -> "checksum mismatch"
  | Corrupt what -> Printf.sprintf "corrupt snapshot: %s" what

let magic = "BDIXSNAP"

(* v2: Postcodec-coded postings runs and off-heap line texts — the only
   version written or read. *)
let format_version = 2
let header_len = 32
let checksum_offset = 24

let fnv_offset = 0xcbf29ce484222325L

let fnv1a64 ?(pos = 0) ?len (b : bytes) =
  let len = match len with Some l -> l | None -> Bytes.length b - pos in
  let h = ref fnv_offset in
  (* fold native-endian 64-bit words, not bytes: checksummed regions are
     8-aligned by construction and the 8x shorter loop keeps validation off
     the warm path's critical time.  Native order means the reader can fold
     an mmapped int64 view directly; a snapshot carried across endianness
     fails the checksum and rebuilds cold, which is the documented contract
     for these per-host caches. *)
  let words = len / 8 in
  for i = 0 to words - 1 do
    h :=
      Int64.mul
        (Int64.logxor !h (Bytes.get_int64_ne b (pos + (i * 8))))
        0x100000001b3L
  done;
  for i = pos + (words * 8) to pos + len - 1 do
    h :=
      Int64.mul
        (Int64.logxor !h (Int64.of_int (Char.code (Bytes.unsafe_get b i))))
        0x100000001b3L
  done;
  !h

(* -- Writing --------------------------------------------------------- *)

type pending = { p_id : int; p_payload : string }

type writer = { mutable sections : pending list (* reversed *) }

let writer () = { sections = [] }

let add w id payload =
  if List.exists (fun p -> p.p_id = id) w.sections then
    invalid_arg "Codec.add: duplicate section id";
  w.sections <- { p_id = id; p_payload = payload } :: w.sections

let ivec_payload v =
  let n = Ivec.length v in
  let b = Bytes.create (n * 8) in
  for i = 0 to n - 1 do
    Bytes.set_int64_ne b (i * 8) (Int64.of_int (Ivec.unsafe_get v i))
  done;
  Bytes.unsafe_to_string b

let ints_payload a =
  let n = Array.length a in
  let b = Bytes.create (n * 8) in
  for i = 0 to n - 1 do
    Bytes.set_int64_ne b (i * 8) (Int64.of_int (Array.unsafe_get a i))
  done;
  Bytes.unsafe_to_string b

let add_ivec w ~id v = add w id (ivec_payload v)
let add_ints w ~id a = add w id (ints_payload a)
let add_blob w ~id s = add w id s

let align8 n = (n + 7) land lnot 7

let write_file w ~path =
  let sections = List.rev w.sections in
  let n = List.length sections in
  let dir_len = n * 24 in
  (* assign payload offsets, 8-aligned *)
  let off = ref (header_len + dir_len) in
  let placed =
    List.map
      (fun p ->
         let o = align8 !off in
         off := o + String.length p.p_payload;
         (p, o))
      sections
  in
  let total = align8 !off in
  let b = Bytes.make total '\000' in
  Bytes.blit_string magic 0 b 0 8;
  Bytes.set_int32_le b 8 (Int32.of_int format_version);
  Bytes.set_int32_le b 12 (Int32.of_int n);
  Bytes.set_int64_le b 16 (Int64.of_int total);
  List.iteri
    (fun i (p, o) ->
       let e = header_len + (i * 24) in
       Bytes.set_int64_le b e (Int64.of_int p.p_id);
       Bytes.set_int64_le b (e + 8) (Int64.of_int o);
       Bytes.set_int64_le b (e + 16)
         (Int64.of_int (String.length p.p_payload));
       Bytes.blit_string p.p_payload 0 b o (String.length p.p_payload))
    placed;
  Bytes.set_int64_le b checksum_offset
    (fnv1a64 ~pos:header_len ~len:(total - header_len) b);
  let tmp = path ^ ".tmp" in
  let oc = Out_channel.open_bin tmp in
  Fun.protect ~finally:(fun () -> Out_channel.close oc) (fun () ->
      Out_channel.output_bytes oc b);
  Sys.rename tmp path;
  total

(* -- Reading --------------------------------------------------------- *)

type section = { s_off : int; s_len : int }

(* concrete element types matter below: helpers over bigarrays must be
   annotated or they infer polymorphic kinds and compile to the generic
   (boxing) access path — ~12x slower on the checksum loop *)
type word_map = (int64, Bigarray.int64_elt, Bigarray.c_layout) Bigarray.Array1.t
type char_map = (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

type reader = {
  fd : Unix.file_descr;
  r_size : int;
  words : word_map;
      (* whole file mapped as native 64-bit words: checksum + blob copies *)
  chars : char_map;
      (* same mapping, byte granularity: header fields + unaligned tails *)
  dir : (int, section) Hashtbl.t;
}

let ( let* ) = Result.bind

let byte (chars : char_map) i = Char.code (Bigarray.Array1.get chars i)

let le32 chars off =
  byte chars off
  lor (byte chars (off + 1) lsl 8)
  lor (byte chars (off + 2) lsl 16)
  lor (byte chars (off + 3) lsl 24)

let le64 chars off =
  let lo = le32 chars off and hi = le32 chars (off + 4) in
  Int64.logor (Int64.of_int lo) (Int64.shift_left (Int64.of_int hi) 32)

(* Equal to [fnv1a64 ~pos:header_len ~len:(size - header_len)] over the file
   bytes, but folding the mapped word view directly — no read(2), no copy. *)
let checksum_mapped (words : word_map) (chars : char_map) ~size =
  let h = ref fnv_offset in
  let nw = size / 8 in
  for i = header_len / 8 to nw - 1 do
    h :=
      Int64.mul
        (Int64.logxor !h (Bigarray.Array1.unsafe_get words i))
        0x100000001b3L
  done;
  for i = nw * 8 to size - 1 do
    h :=
      Int64.mul
        (Int64.logxor !h
           (Int64.of_int (Char.code (Bigarray.Array1.unsafe_get chars i))))
        0x100000001b3L
  done;
  !h

let read_file ~path =
  match Unix.openfile path [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error (e, _, _) ->
    Error (Corrupt (Printf.sprintf "cannot open %s: %s" path
                      (Unix.error_message e)))
  | fd ->
    let fail e = Unix.close fd; Error e in
    let size = (Unix.fstat fd).Unix.st_size in
    if size < header_len then fail Truncated
    else begin
      match
        ( Bigarray.array1_of_genarray
            (Unix.map_file fd Bigarray.int64 Bigarray.c_layout false
               [| size / 8 |]),
          Bigarray.array1_of_genarray
            (Unix.map_file fd Bigarray.char Bigarray.c_layout false
               [| size |]) )
      with
      | exception Unix.Unix_error (e, _, _) ->
        fail
          (Corrupt (Printf.sprintf "mmap failed: %s" (Unix.error_message e)))
      | words, chars ->
        let magic_ok =
          let ok = ref true in
          for i = 0 to 7 do
            if Bigarray.Array1.get chars i <> magic.[i] then ok := false
          done;
          !ok
        in
        if not magic_ok then fail Bad_magic
        else
          let version = le32 chars 8 in
          if version <> format_version then fail (Bad_version version)
          else if Int64.to_int (le64 chars 16) <> size then fail Truncated
          else if
            not
              (Int64.equal (le64 chars checksum_offset)
                 (checksum_mapped words chars ~size))
          then fail Bad_checksum
          else begin
            let n = le32 chars 12 in
            if n < 0 || header_len + (n * 24) > size then
              fail (Corrupt "directory exceeds file")
            else begin
              let dir = Hashtbl.create (2 * n) in
              let bad = ref None in
              for i = 0 to n - 1 do
                let e = header_len + (i * 24) in
                let id = Int64.to_int (le64 chars e) in
                let off = Int64.to_int (le64 chars (e + 8)) in
                let len = Int64.to_int (le64 chars (e + 16)) in
                if off < header_len + (n * 24) || len < 0
                   || off + len > size || off land 7 <> 0
                then
                  bad :=
                    Some
                      (Corrupt
                         (Printf.sprintf "section %d out of bounds" id))
                else if Hashtbl.mem dir id then
                  bad :=
                    Some
                      (Corrupt (Printf.sprintf "duplicate section %d" id))
                else Hashtbl.replace dir id { s_off = off; s_len = len }
              done;
              match !bad with
              | Some e -> fail e
              | None ->
                Ok { fd; r_size = size; words; chars; dir }
            end
          end
    end

let size r = r.r_size

let mem r ~id = Hashtbl.mem r.dir id

let section r id =
  match Hashtbl.find_opt r.dir id with
  | Some s -> Ok s
  | None -> Error (Corrupt (Printf.sprintf "missing section %d" id))

let map_ivec r ~id =
  let* s = section r id in
  if s.s_len land 7 <> 0 then
    Error (Corrupt (Printf.sprintf "section %d is not an int vector" id))
  else
    let n = s.s_len / 8 in
    let g =
      Unix.map_file r.fd ~pos:(Int64.of_int s.s_off) Bigarray.int
        Bigarray.c_layout false [| n |]
    in
    Ok (Bigarray.array1_of_genarray g)

(* No-copy byte view of a section: a sub of the file's private char mapping.
   Like [map_ivec] views, it stays valid after [close] and writes are
   copy-on-write. *)
let map_bytes r ~id =
  let* s = section r id in
  Ok (Bigarray.Array1.sub r.chars s.s_off s.s_len)

(* Copy a word at a time out of the mapping (offsets are 8-aligned by the
   directory check); the sub-word tail goes byte-wise. *)
let read_blob r ~id =
  let* s = section r id in
  let b = Bytes.create s.s_len in
  let wbase = s.s_off / 8 in
  let nw = s.s_len / 8 in
  for i = 0 to nw - 1 do
    Bytes.set_int64_ne b (i * 8)
      (Bigarray.Array1.unsafe_get r.words (wbase + i))
  done;
  for i = nw * 8 to s.s_len - 1 do
    Bytes.set b i (Bigarray.Array1.unsafe_get r.chars (s.s_off + i))
  done;
  Ok (Bytes.unsafe_to_string b)

let close r = try Unix.close r.fd with Unix.Unix_error _ -> ()
