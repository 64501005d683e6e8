(** Flat int vectors backed by [Bigarray]: the payload lives outside the
    OCaml heap, so the GC neither traces nor copies it.  The hit arena's
    columns and the search engine's packed postings are [Ivec.t]s, which is
    what lets a snapshot load map them straight from a file ([Unix.map_file]
    yields exactly this type) instead of rebuilding them on the heap.

    The type is exposed transparently so producers that already hold a
    bigarray (an mmapped section, say) need no copy. *)

type t = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

(** [create n] is an uninitialised off-heap vector of [n] ints. *)
val create : int -> t

(** [make n x] is [create n] filled with [x]. *)
val make : int -> int -> t

val length : t -> int

val get : t -> int -> int
val set : t -> int -> int -> unit

(** Unchecked access — callers must guarantee [0 <= i < length]. *)
val unsafe_get : t -> int -> int

(** [blit_add src src_pos dst dst_pos len d] stores [src.(src_pos + i) + d]
    at [dst.(dst_pos + i)] for [0 <= i < len]: a block copy that rebases
    positions on the way.  The ranges must not overlap. *)
val blit_add : t -> int -> t -> int -> int -> int -> unit

val of_array : int array -> t
val to_array : t -> int array

(** [iteri f v] applies [f i v.(i)] in index order. *)
val iteri : (int -> int -> unit) -> t -> unit

(** Structural equality on lengths and elements. *)
val equal : t -> t -> bool

(** [find_sorted v x] is the index of [x] in the strictly ascending vector
    [v], or [-1] when absent (binary search, no allocation). *)
val find_sorted : t -> int -> int

(** [prefault v] touches one element per page (4 KiB stride) in order,
    forcing the kernel to populate page-table entries for a lazily mapped
    vector up front instead of on the first query that walks it.  Returns a
    value dependent on the elements read so the traversal cannot be
    optimised away. *)
val prefault : t -> int

