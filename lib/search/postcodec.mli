(** Compressed postings runs: the encoding of one key's strictly ascending
    slot list in every engine's postings (and so in snapshot files), decoded
    on demand by the engine's packed cursors instead of being materialised
    as an 8-byte-per-slot {!Ivec.t}.

    Wire format of one run:
    {v
      varint n                      (slot count; 0 = empty, nothing follows)
      u8 tag                        (0 = varint deltas, 1 = bitmap)
      tag 0: varint slots[0], then n-1 x varint (slots[i] - slots[i-1] - 1)
      tag 1: varint first, varint nwords, nwords x u64-le bitmap words
             (bit j of word w set = slot first + 64*w + j present)
    v}

    The bitmap form is chosen exactly when [8 * nwords <= n] — varint runs
    cost at least one byte per slot, so the choice never loses bytes, and
    it is a pure function of the run, so every producer — sequential and
    sharded builds, delta patches — emits byte-identical runs for the same
    slots (the identities the store and pool tests assert).  Varints are
    LEB128; a delta of [k] encodes a gap of [k + 1] (slots are strictly
    ascending), which makes max-gap runs cost ~9 bytes per slot and dense
    runs 1 byte per slot. *)

(** Append the run [slots.(lo) .. slots.(hi-1)] (strictly ascending) to
    [buf]. *)
val encode : Buffer.t -> Ivec.t -> lo:int -> hi:int -> unit

(** [encode_array buf a] is {!encode} over the whole array. *)
val encode_array : Buffer.t -> int array -> unit

(** Slot count of the run at [pos] — reads only the count header, O(1) in
    the run length.  The data must have been {!validate}d. *)
val count : Bvec.t -> pos:int -> int

(** Apply [f] to each slot of the run at [pos], in ascending order.
    Allocation-free; the data must have been {!validate}d. *)
val iter : Bvec.t -> pos:int -> (int -> unit) -> unit

(** Fully check the run occupying exactly [pos .. limit) — bounds, tag,
    varints that fit a non-negative int, slot range ([0 .. max_slot]),
    bitmap population — returning its slot count.  Every byte a later
    {!iter} touches is checked here, so the fast path can read
    unchecked. *)
val validate :
  Bvec.t -> pos:int -> limit:int -> max_slot:int -> (int * int, string) result
