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

    Int-vector payloads are native-endian machine words so a load can map
    them straight into {!Ivec.t}s with [Unix.map_file] — snapshots are
    per-host caches, not interchange files (a host with a different word
    order simply fails the structural checks and rebuilds cold).

    Loads validate in order: header present ([Truncated]), magic
    ([Bad_magic]), version ([Bad_version]), recorded vs actual file length
    ([Truncated]), checksum ([Bad_checksum]), then directory geometry
    ([Corrupt]).  Mapped sections are private (copy-on-write): consumers may
    rewrite mapped vectors — the symbol-id remap does — without touching the
    file. *)

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
(** The one version written and read: 2, whose files store
    {!Bytesearch.Postcodec}-coded postings runs and off-heap line texts.
    A file declaring any other version — including v1, the retired
    flat-postings layout — fails with [Bad_version]. *)

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

type writer

val writer : unit -> writer

(** Append sections.  Ids must be distinct; order is preserved. *)
val add_ivec : writer -> id:int -> Ivec.t -> unit

val add_ints : writer -> id:int -> int array -> unit
val add_blob : writer -> id:int -> string -> unit

(** Write the container to [path] (atomically: a temp file renamed over the
    target), stamped {!format_version}, and return its size in bytes. *)
val write_file : writer -> path:string -> int

(* -- Reading --------------------------------------------------------- *)

type reader

(** Open and fully validate [path]: header, checksum, directory.  The
    reader holds an open fd until {!close}. *)
val read_file : path:string -> (reader, error) result

(** Total file size in bytes. *)
val size : reader -> int

(** Does the file contain section [id]?  Probe for optional sections
    (older files simply lack them). *)
val mem : reader -> id:int -> bool

(** Map section [id] as an off-heap int vector (private mapping — writes
    are copy-on-write, never hitting the file).  Fails with [Corrupt] when
    the section is missing or its byte length is not a multiple of 8. *)
val map_ivec : reader -> id:int -> (Ivec.t, error) result

(** Read section [id] as a string. *)
val read_blob : reader -> id:int -> (string, error) result

(** Map section [id] as an off-heap byte vector — a no-copy view into the
    file's private (copy-on-write) mapping, valid after {!close}. *)
val map_bytes : reader -> id:int -> (Bvec.t, error) result

(** Close the fd.  Existing mappings stay valid. *)
val close : reader -> unit
