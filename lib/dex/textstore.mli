(** The dexfile's plaintext lines as (offset, length) views into one byte
    blob.  This is the only layout of line texts: a text pass writes it
    ({!Writer}) on the dexfile's first read ([Dexfile.text]), whatever
    produced the dexfile.  A snapshot does not store it.

    The residual text scan (free-form [Raw] queries) matches directly
    against the blob with the allocation-free predicates below; a line's
    string is materialised only when a caller asks for it
    ([Dexfile.line_text]). *)

type t

(** [create ~blob ~offs] views line [i] as bytes
    [offs.(i) .. offs.(i+1) - 1] of [blob]; the offsets must ascend, as a
    text pass writes them.  Raises [Invalid_argument] unless they run
    from 0 to [Bvec.length blob]. *)
val create : blob:Bvec.t -> offs:Ivec.t -> t

(** The raw backing views, which [Dexfile.to_string] copies whole. *)

val blob : t -> Bvec.t
val offsets : t -> Ivec.t

(** Byte length of line [i]. *)
val length_at : t -> int -> int

(** Materialise line [i] as a fresh string. *)
val get : t -> int -> string

(** Position of the first [c] in line [i] (relative to the line start), or
    [-1].  Allocation-free. *)
val index_char : t -> int -> char -> int

(** Whether line [i] carries [prefix] at byte [pos].  Allocation-free. *)
val starts_with : t -> int -> pos:int -> prefix:string -> bool

(** [iter_matches t ~pat f] calls [f i] for every line [i] containing
    [pat], ascending, each such line once.  One Boyer–Moore–Horspool pass
    over the whole blob (not a loop per line), so cost scales with
    [blob / |pat|] rather than [blob] — the residual scan's bulk path.  An
    empty [pat] matches every line; a match straddling a line boundary
    matches neither line. *)
val iter_matches : t -> pat:string -> (int -> unit) -> unit
