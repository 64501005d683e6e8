(** The snapshot container format: a versioned, checksummed single file of
    numbered sections, each either a flat int vector or a byte blob.

    Layout (all header fields little-endian):
    {v
      0 .. 7    magic "BDIXSNAP"
      8 .. 11   u32 format version
     12 .. 15   u32 section count
     16 .. 23   u64 total file length
     24 .. 31   u64 FNV-1a 64 checksum of everything after the header
     32 ..      directory: per section, 3 x u64 { id, offset, byte length }
      then      section payloads, each 8-byte aligned
    v}
    Padding before and after payloads is zero bytes, and the file length is
    a multiple of 8.

    Int-vector payloads are native-endian machine words so a load can map
    them straight into {!Ivec.t}s with [Unix.map_file] — snapshots are
    per-host caches, not interchange files (a host with a different word
    order simply fails the structural checks and rebuilds cold).

    Writes stream: each section's producer puts its bytes straight from
    where they live into one reusable {!chunk_len}-byte chunk, and the
    checksum is folded over each chunk as it goes to the file, so a save
    holds no image of the file and copies each byte once on the OCaml
    side.

    Loads validate in order: header present ([Truncated]), magic
    ([Bad_magic]), version ([Bad_version]), recorded vs actual file length
    ([Truncated]), checksum ([Bad_checksum]), then directory geometry
    ([Corrupt]).  A load maps the file twice, once per element kind — as
    bytes and as native ints — and hands out each section as a sub-view of
    one of the two, so reading a section makes no system call.  The
    mappings are private (copy-on-write), so no write to a mapped vector
    could reach the file; the snapshot load writes none. *)

type error =
  | Bad_magic
  | Bad_version of int  (** the version the file declares *)
  | Truncated
  | Bad_checksum
  | Corrupt of string   (** structurally invalid despite a good checksum *)

val error_to_string : error -> string

val magic : string
(** 8 bytes. *)

val format_version : int
(** The one version written and read: 5, whose files store
    {!Bytesearch.Postcodec}-coded postings runs, no line text, arena slots
    only for the lines a search can return, and persisted results of one
    entry per string, each carrying the IR hashes of its footprint
    classes.  A file declaring any other version — v1, the retired
    flat-postings layout, v2, which also stored the line texts, v3, which
    gave every instruction line a slot, or v4, whose results began with a
    copy of the whole class-hash table — fails with [Bad_version]. *)

val header_len : int
(** 32. *)

val checksum_offset : int
(** Byte offset of the checksum field, for tests. *)

(** FNV-1a 64 over [len] bytes of [b] starting at [pos] (defaults: the
    whole buffer), folded a native-endian 64-bit word at a time (trailing
    bytes byte-wise) so the reader can verify it straight off the mmapped
    word view and checksumming never dominates a warm start.  Exposed so
    tests can re-seal a deliberately corrupted file and prove the
    structural checks catch what the checksum no longer does. *)
val fnv1a64 : ?pos:int -> ?len:int -> bytes -> int64

(* -- Writing --------------------------------------------------------- *)

(** A section to write: an id, a byte length and a producer that puts
    exactly that many bytes into a {!sink}.  The constructors and puts
    below write from where the data already lives — an {!Ivec.t} or a
    {!Bvec.t} as it is, strings as they are — so a save copies each byte
    once, into the write chunk. *)
type section

(** Where a producer puts its bytes: a fixed-size chunk of {!chunk_len}
    bytes that {!write_file} flushes to the file, folding the checksum over
    each chunk as it goes. *)
type sink

(** The write chunk's size in bytes, a multiple of 8.  Exposed so tests can
    write sections longer than one chunk. *)
val chunk_len : int

(** [section ~id ~len produce]: [produce] must put exactly [len] bytes, or
    {!write_file} raises [Invalid_argument].  A payload starts 8-aligned,
    so a producer may put words from its start. *)
val section : id:int -> len:int -> (sink -> unit) -> section

(** One native-endian machine word, as {!map_ivec} reads it back. *)
val put_int : sink -> int -> unit

val put_int64_le : sink -> int64 -> unit

(** An int vector's elements, as {!put_int} puts each. *)
val put_ivec : sink -> Ivec.t -> unit

(** A byte vector's bytes, as they are. *)
val put_bvec : sink -> Bvec.t -> unit

val put_string : sink -> string -> unit

(** An int vector as native-endian machine words. *)
val ivec : id:int -> Ivec.t -> section

val ints : id:int -> int array -> section
val bvec : id:int -> Bvec.t -> section

(** Write the sections to [path] in order, stamped {!format_version}, and
    return the file size in bytes.  The directory is laid out from the
    lengths, then the directory and each payload stream into a temp file
    through one reusable chunk, and the header is written last, once the
    checksum is known.  The temp file sits beside [path] under a name
    unique per write, and is renamed over [path] when complete, so a
    reader never sees a partial file and concurrent saves to one path do
    not share it.  On any exception (a full disk, [path] naming a
    directory, a producer that breaks its length) the temp file is removed
    and the exception re-raised; I/O failures are [Sys_error].  The output
    is never mapped, so a full disk is an exception, never a [SIGBUS].
    Raises [Invalid_argument] on duplicate section ids. *)
val write_file : path:string -> section list -> int

(* -- Reading --------------------------------------------------------- *)

type reader

(** Open, map and fully validate [path]: header, checksum, directory.
    The reader holds an open fd until {!close}. *)
val read_file : path:string -> (reader, error) result

(** Total file size in bytes. *)
val size : reader -> int

(** Does the file contain section [id]?  Probe for optional sections
    (older files simply lack them). *)
val mem : reader -> id:int -> bool

(** Section [id] as an off-heap int vector: a no-copy view into the
    file's private int mapping (writes are copy-on-write, never hitting
    the file), valid after {!close}.  Fails with [Corrupt] when the
    section is missing or its byte length is not a multiple of 8. *)
val map_ivec : reader -> id:int -> (Ivec.t, error) result

(** Section [id] copied into a string. *)
val read_blob : reader -> id:int -> (string, error) result

(** Section [id] as an off-heap byte vector: a no-copy view into the
    file's private byte mapping, valid after {!close}. *)
val map_bytes : reader -> id:int -> (Bvec.t, error) result

(** Close the fd.  Existing mappings stay valid. *)
val close : reader -> unit
