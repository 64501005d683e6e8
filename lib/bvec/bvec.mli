(** Flat byte vectors backed by [Bigarray]: the payload lives outside the
    OCaml heap, so the GC neither traces nor copies it.  The byte-granular
    sibling of {!Ivec}: snapshot loads hand out mmapped file sections as
    [Bvec.t]s (packed postings runs), a dexfile's text pass leaves its
    line-text blob in one, and the search engine's residual scan and
    postings cursors read them without materializing strings.

    The type is exposed transparently so producers that already hold a char
    bigarray (an mmapped section, say) need no copy. *)

type t = (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

(** [create n] is an uninitialised off-heap vector of [n] bytes. *)
val create : int -> t

val length : t -> int

val get : t -> int -> char
val set : t -> int -> char -> unit

(** Unchecked access — callers must guarantee [0 <= i < length]. *)
val unsafe_get : t -> int -> char

(** [get_u8 v i] is [Char.code (get v i)] (bounds-checked). *)
val get_u8 : t -> int -> int

(** Unchecked byte read. *)
val unsafe_u8 : t -> int -> int

val of_string : string -> t

(** [of_bytes b len] copies the first [len] bytes of [b] into a fresh
    vector, a machine word at a time. *)
val of_bytes : bytes -> int -> t
val to_string : t -> string

(** [sub_string v pos len] materialises [len] bytes starting at [pos] as a
    fresh string (bounds-checked). *)
val sub_string : t -> int -> int -> string

(** [blit_to_bytes v pos b off len] copies [len] bytes of [v] starting at
    [pos] into [b] at [off], a machine word at a time (bounds-checked). *)
val blit_to_bytes : t -> int -> bytes -> int -> int -> unit

(** [equal_string v ~pos s] holds when the bytes at [pos .. pos +
    length s - 1] equal [s].  Allocation-free; callers must guarantee the
    range is in bounds. *)
val equal_string : t -> pos:int -> string -> bool

(** [prefault v] touches one byte per page (4 KiB stride) in order,
    forcing the kernel to populate page-table entries for a lazily mapped
    region up front instead of on first query.  Returns a value dependent
    on every byte read so the traversal cannot be optimised away. *)
val prefault : t -> int
