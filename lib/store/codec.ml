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

(* v6: Postcodec-coded postings runs, no line text, arena slots only for
   the lines a search can return, and persisted results whose entries
   carry their footprint classes' hashes, each covering the whole
   manifest, with no class-hash header — the only version written or
   read. *)
let format_version = 6
let header_len = 32
let checksum_offset = 24

let fnv_offset = 0xcbf29ce484222325L

(* Continue an FNV-1a 64 fold over [len] bytes of [b] from [pos]: native-
   endian 64-bit words, then the trailing bytes one at a time.  Checksummed
   regions are 8-aligned by construction and the 8x shorter loop keeps
   validation off the warm path's critical time.  Native order means the
   reader can fold an mmapped int64 view directly; a snapshot carried
   across endianness fails the checksum and rebuilds cold, which is the
   documented contract for these per-host caches. *)
let fold h (b : bytes) ~pos ~len =
  let h = ref h in
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

let fnv1a64 ?(pos = 0) ?len (b : bytes) =
  let len = match len with Some l -> l | None -> Bytes.length b - pos in
  fold fnv_offset b ~pos ~len

(* -- Writing --------------------------------------------------------- *)

(* A multiple of 8, and only a full chunk is flushed before the last one,
   so every flush but the last folds whole words into the checksum and the
   streamed fold equals [fnv1a64] over the finished file. *)
let chunk_len = 65536

(* Everything after the header, staged through one chunk.  [flushed] bytes
   have gone to [oc] and into [hash]; the file position of the next byte is
   [header_len + flushed + fill]. *)
type sink = {
  oc : Out_channel.t;
  chunk : Bytes.t;
  mutable fill : int;
  mutable flushed : int;
  mutable hash : int64;
}

let flush s =
  s.hash <- fold s.hash s.chunk ~pos:0 ~len:s.fill;
  Out_channel.output s.oc s.chunk 0 s.fill;
  s.flushed <- s.flushed + s.fill;
  s.fill <- 0

let written s = s.flushed + s.fill

(* Free bytes in the chunk, at least one. *)
let room s =
  if s.fill = chunk_len then flush s;
  chunk_len - s.fill

(* Word writes rely on the layout: int payloads start 8-aligned, so a word
   never straddles a flush (a misaligned one fails the bounds check). *)
let put_int s i =
  if s.fill = chunk_len then flush s;
  Bytes.set_int64_ne s.chunk s.fill (Int64.of_int i);
  s.fill <- s.fill + 8

let put_int64_le s x =
  if s.fill = chunk_len then flush s;
  Bytes.set_int64_le s.chunk s.fill x;
  s.fill <- s.fill + 8

(* The bulk puts copy one run per iteration: as much as the chunk holds. *)
let put_sub s str pos len =
  let pos = ref pos and len = ref len in
  while !len > 0 do
    let n = min !len (room s) in
    Bytes.blit_string str !pos s.chunk s.fill n;
    s.fill <- s.fill + n;
    pos := !pos + n;
    len := !len - n
  done

let put_string s str = put_sub s str 0 (String.length str)

let put_bvec s v =
  let pos = ref 0 and len = ref (Bvec.length v) in
  while !len > 0 do
    let n = min !len (room s) in
    Bvec.blit_to_bytes v !pos s.chunk s.fill n;
    s.fill <- s.fill + n;
    pos := !pos + n;
    len := !len - n
  done

(* An int vector a run of words per iteration. *)
let put_ivec s v =
  let n = Ivec.length v and i = ref 0 in
  while !i < n do
    let k = min (n - !i) (max 1 (room s / 8)) in
    for j = 0 to k - 1 do
      Bytes.set_int64_ne s.chunk (s.fill + (j * 8))
        (Int64.of_int (Ivec.unsafe_get v (!i + j)))
    done;
    s.fill <- s.fill + (k * 8);
    i := !i + k
  done

type section = { id : int; len : int; produce : sink -> unit }

let section ~id ~len produce =
  if len < 0 then invalid_arg "Codec.section: negative length";
  { id; len; produce }

let ivec ~id v =
  section ~id ~len:(8 * Ivec.length v) (fun s -> put_ivec s v)

let ints ~id a =
  section ~id ~len:(8 * Array.length a) (fun s -> Array.iter (put_int s) a)

let bvec ~id v = section ~id ~len:(Bvec.length v) (fun s -> put_bvec s v)

let align8 n = (n + 7) land lnot 7
let zeros = String.make 8 '\000'

(* Unique per write among live writers: concurrent saves to one path never
   share a temp file. *)
let temp_seq = Atomic.make 0

let temp_path path =
  Printf.sprintf "%s.%d-%d.tmp" path (Unix.getpid ())
    (Atomic.fetch_and_add temp_seq 1)

(* Directory, then each payload at its 8-aligned offset, all through one
   chunk; the header goes last, once the checksum is known. *)
let stream oc placed ~n ~total =
  let s =
    { oc; chunk = Bytes.create chunk_len; fill = 0; flushed = 0;
      hash = fnv_offset }
  in
  let pad_to off = put_sub s zeros 0 (off - header_len - written s) in
  List.iter
    (fun (sec, off) ->
       put_int64_le s (Int64.of_int sec.id);
       put_int64_le s (Int64.of_int off);
       put_int64_le s (Int64.of_int sec.len))
    placed;
  List.iter
    (fun (sec, off) ->
       pad_to off;
       sec.produce s;
       let got = header_len + written s - off in
       if got <> sec.len then
         invalid_arg
           (Printf.sprintf "Codec.write_file: section %d wrote %d of %d bytes"
              sec.id got sec.len))
    placed;
  pad_to total;
  flush s;
  let h = Bytes.make header_len '\000' in
  Bytes.blit_string magic 0 h 0 8;
  Bytes.set_int32_le h 8 (Int32.of_int format_version);
  Bytes.set_int32_le h 12 (Int32.of_int n);
  Bytes.set_int64_le h 16 (Int64.of_int total);
  Bytes.set_int64_le h checksum_offset s.hash;
  Out_channel.seek oc 0L;
  Out_channel.output_bytes oc h

let write_file ~path sections =
  let n = List.length sections in
  if List.length (List.sort_uniq compare (List.map (fun s -> s.id) sections))
     <> n
  then invalid_arg "Codec.write_file: duplicate section id";
  (* lay out the payloads from their lengths, 8-aligned *)
  let off = ref (header_len + (n * 24)) in
  let placed =
    List.map
      (fun sec ->
         let o = align8 !off in
         off := o + sec.len;
         (sec, o))
      sections
  in
  let total = align8 !off in
  let tmp = temp_path path in
  let oc =
    Out_channel.open_gen [ Open_wronly; Open_creat; Open_trunc; Open_binary ]
      0o666 tmp
  in
  match
    Out_channel.seek oc (Int64.of_int header_len);
    stream oc placed ~n ~total;
    Out_channel.close oc;
    Sys.rename tmp path
  with
  | () -> total
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    Out_channel.close_noerr oc;
    (try Sys.remove tmp with Sys_error _ -> ());
    Printexc.raise_with_backtrace e bt

(* -- Reading --------------------------------------------------------- *)

type extent = { s_off : int; s_len : int }

(* The file is mapped once per element kind: as bytes (header fields, the
   checksum, byte sections) and as native ints (int sections), each
   section a sub-view of one of the two.  Concrete element types matter:
   helpers over bigarrays must be annotated or they infer polymorphic
   kinds and compile to the generic (boxing) access path — ~12x slower on
   the checksum loop. *)
type reader = {
  fd : Unix.file_descr;
  r_size : int;
  ints : Ivec.t;  (* the whole words of the file *)
  chars : Bvec.t;  (* every byte of the file *)
  dir : (int, extent) Hashtbl.t;
}

let ( let* ) = Result.bind

(* a native-endian 64-bit word at any byte offset, the compiler's own
   primitive: the checksum folds the byte mapping a word at a time *)
external get64u : Bvec.t -> int -> int64 = "%caml_bigstring_get64u"

let byte (chars : Bvec.t) i = Char.code (Bigarray.Array1.get chars i)

let le32 chars off =
  byte chars off
  lor (byte chars (off + 1) lsl 8)
  lor (byte chars (off + 2) lsl 16)
  lor (byte chars (off + 3) lsl 24)

let le64 chars off =
  let lo = le32 chars off and hi = le32 chars (off + 4) in
  Int64.logor (Int64.of_int lo) (Int64.shift_left (Int64.of_int hi) 32)

(* Equal to [fnv1a64 ~pos:header_len ~len:(size - header_len)] over the file
   bytes, but folding the mapping directly — no read(2), no copy. *)
let checksum_mapped (chars : Bvec.t) ~size =
  let h = ref fnv_offset in
  let nw = size / 8 in
  for i = header_len / 8 to nw - 1 do
    h := Int64.mul (Int64.logxor !h (get64u chars (i * 8))) 0x100000001b3L
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
            (Unix.map_file fd Bigarray.int Bigarray.c_layout false
               [| size / 8 |]),
          Bigarray.array1_of_genarray
            (Unix.map_file fd Bigarray.char Bigarray.c_layout false
               [| size |]) )
      with
      | exception Unix.Unix_error (e, _, _) ->
        fail
          (Corrupt (Printf.sprintf "mmap failed: %s" (Unix.error_message e)))
      | ints, chars ->
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
                 (checksum_mapped chars ~size))
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
                (* [len > size - off], not [off + len > size]: a huge
                   length would wrap the sum negative *)
                if off < header_len + (n * 24) || len < 0
                   || len > size - off || off land 7 <> 0
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
                Ok { fd; r_size = size; ints; chars; dir }
            end
          end
    end

let size r = r.r_size

let mem r ~id = Hashtbl.mem r.dir id

let extent r id =
  match Hashtbl.find_opt r.dir id with
  | Some s -> Ok s
  | None -> Error (Corrupt (Printf.sprintf "missing section %d" id))

(* No-copy views of a section: subs of the file's private mappings (the
   directory check made every offset 8-aligned), which stay valid after
   [close] and whose writes are copy-on-write. *)
let map_ivec r ~id =
  let* s = extent r id in
  if s.s_len land 7 <> 0 then
    Error (Corrupt (Printf.sprintf "section %d is not an int vector" id))
  else Ok (Bigarray.Array1.sub r.ints (s.s_off / 8) (s.s_len / 8))

let map_bytes r ~id =
  let* s = extent r id in
  Ok (Bigarray.Array1.sub r.chars s.s_off s.s_len)

let read_blob r ~id =
  let* s = extent r id in
  Ok (Bvec.sub_string r.chars s.s_off s.s_len)

let close r = try Unix.close r.fd with Unix.Unix_error _ -> ()
