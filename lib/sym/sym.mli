(** Hash-consed interned symbols (the "symbolized search core" substrate).

    A {!t} is an integer handle for a string interned exactly once per
    process: two symbols are equal iff their strings are equal, so equality
    and hashing are O(1) integer operations with no per-comparison
    allocation.  The search engine keys its command cache on symbols; the
    disassembler interns every class descriptor, method signature and
    field signature it renders, so the analysis hot loops never rebuild or
    re-hash signature strings.  Ids are process-specific: an arena numbers
    its own symbols ([Dex.Arena]), and a snapshot stores those numbers and
    the strings, never these ids.

    The table is domain-safe: {!intern} serializes writers behind a mutex,
    while {!to_string} is a lock-free read (the id → string store is a
    pre-sized spine of atomically published chunks, so a symbol received
    from another domain always resolves). *)

type t

(** Intern [s], returning its unique symbol.  O(1) amortized; takes the
    table lock. *)
val intern : string -> t

(** [intern_slices blob offsets] interns the [Ivec.length offsets - 1]
    strings [blob\[offsets.(i), offsets.(i+1))], in order, and returns
    their symbols: the ids {!intern} would give them one by one, in one
    critical section (no other domain's intern lands among them) with one
    table probe per string, each cut straight from [blob].  A snapshot
    load interns its symbol table this way, from the mapped section, and
    the result is the loaded arena's table.
    Raises [Invalid_argument] unless the offsets ascend from [0] or more
    to at most [Bvec.length blob]. *)
val intern_slices : Bvec.t -> Ivec.t -> t array

(** The symbol of [s] if it was already interned (no insertion). *)
val find : string -> t option

(** The interned string.  Lock-free; physically the same string for every
    call on the same symbol. *)
val to_string : t -> string

(** O(1) integer equality. *)
val equal : t -> t -> bool

(** O(1) integer hash. *)
val hash : t -> int

(** The raw id, a small dense non-negative int (usable as a table key).
    It depends on what the process interned before, and on scheduling
    when several domains intern at once, so no file may hold it and no
    output may be ordered by it. *)
val id : t -> int

(** Number of symbols interned so far, process-wide. *)
val interned : unit -> int

(** [memo ~hash ~equal render] is a domain-safe memoized [fun x ->
    intern (render x)]: each distinct key renders (and allocates) its
    string exactly once, after which lookups cost one table probe under
    the table's lock.  The render and the intern run outside that lock
    (a keyed {!Parallel.Once} table), so a lookup of another key never
    waits for them.  Used to symbolize signature rendering ([Jsig.meth]
    → dexdump signature) in the query hot path. *)
val memo :
  ?size:int ->
  hash:('a -> int) ->
  equal:('a -> 'a -> bool) ->
  ('a -> string) ->
  'a ->
  t
