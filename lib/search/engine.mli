(** The bytecode search engine: executes typed queries over the dexdump
    plaintext, returning hits mapped back to their enclosing methods, with
    query-level caching (Sec. IV-F).

    Two execution modes:
    - {b indexed} (default): per-category postings — operand id, local to
      the arena's symbol table, to the {!Postcodec}-coded run of its slots
      in the dexfile's hit {!Dex.Arena} — each a {!Parallel.Once} cell,
      built on the first query of that category.  Categories never
      queried are never built.  A snapshot load or a delta patch installs
      all seven at once, in the same layout.  A query maps its symbol to
      the local id through the engine's key table, which holds one entry
      per symbol of the arena's table.
    - {b scan} ([indexed:false]): every query scans the dexfile's text
      store, like the paper's prototype shelling out to grep — the test
      oracle and the search-cost ablation baseline.

    Only scan mode and free-form [Raw] queries read the text
    ({!Dex.Dexfile.text}); an indexed engine answers every other query
    from the arena, so over a cold render it never makes the dexfile
    render its text.

    Both return identical hits for every query (the property tests check
    this across lazy, snapshot and delta engines), so mode choice is purely
    a performance decision. *)

(** One matching plaintext line, materialised only when a query returns
    it: by an indexed query from its arena slot, by a scan or a [Raw]
    query from its class's line layout ({!Dex.Dexfile.locator}), since
    most instruction lines have no slot.  Its text is
    [Dex.Dexfile.line_text] of [line_no]. *)
type hit = {
  line_no : int;              (** position in the merged dex plaintext *)
  owner : Ir.Jsig.meth;       (** enclosing method of the matching line *)
  owner_cls : string;         (** enclosing class *)
  stmt_idx : int option;      (** IR statement index, when the line is an
                                  instruction *)
}

type t

(** One category's postings — the serialization boundary between the
    engine and the snapshot store.  [keys] holds the strictly ascending
    operand ids, local to the arena's symbol table ({!Dex.Arena}); key
    [k]'s slots, strictly ascending in arena order,
    are the self-contained {!Postcodec} run at bytes
    [offsets.(k) .. offsets.(k+1)-1] of [runs] (varint deltas or bitmap
    words), decoded on demand.  This is the only layout: lazy and
    delta-patched builds produce it, and it is the snapshot file's postings
    sections as they are, so built and snapshot-loaded tables of the same
    arena are byte-identical.  All vectors are off-heap. *)
module Packed : sig
  type t = { keys : Ivec.t; offsets : Ivec.t; runs : Bvec.t }
end

(** Build an indexed engine over a disassembled app ([indexed:false]: a
    scan engine, which renders the dexfile's text now, so that creating
    it, not its first query, pays for that).  Postings build lazily, in
    one sequential pass over the arena, on each category's first query.
    The class-tokens postings read the tokens the dexfile kept at render
    time ([Dex.Dexfile.iter_tokens]), so their build over a dexfile not
    rendered in this process raises [Invalid_argument]; snapshot and delta
    engines install them instead.  Queries against the engine are safe
    from multiple domains: a query waits only for a build or a search of
    its own category or key, never for another key's, and hit/miss
    counters are scheduling-independent. *)
val create : ?indexed:bool -> Dex.Dexfile.t -> t

(** All seven categories in packed form, in category order, building any not
    yet built — the snapshot save path. *)
val export_packed : t -> Packed.t array

(** An indexed engine whose postings are installed wholesale — the snapshot
    load path.  The array must hold one table per category, in category
    order; {!index_mode} reports ["snapshot"].  [Error] when the arena's
    symbol table holds one symbol twice: a local id must name one symbol
    and a symbol one local id, or a query would miss the slots filed under
    the other id. *)
val create_packed : Dex.Dexfile.t -> Packed.t array -> (t, string) result

(** [patch old dex ~slot_map] is the delta engine over [dex], a new build
    whose arena reuses slots of [old]'s: every category carries [old]'s
    postings through [slot_map] (old slot -> new slot, [-1] for a slot
    whose class was dropped or re-rendered) and merges in the postings of
    the slots [dex] rendered in this process ([Dex.Dexfile.rendered] — the
    re-rendered classes), indexed exactly as a build of [dex] would index
    them.  [dex]'s symbol table extends [old]'s, so carried keys keep
    their ids.  The result answers every query like a cold engine over
    [dex], inherits [old]'s rule-set stamp, and reports {!index_mode}
    ["delta"].  Also returns the number of postings carried and
    rebuilt. *)
val patch :
  t ->
  Dex.Dexfile.t ->
  slot_map:int array ->
  t * int * int

(** The program the engine's dexfile was disassembled from — the "program
    analysis space" paired with this "bytecode search space". *)
val program : t -> Ir.Program.t

(** The dexfile the engine searches (the snapshot save path serializes its
    texts and arena alongside the packed postings). *)
val dexfile : t -> Dex.Dexfile.t

(** Stamp the engine with the content hash of the rule set about to drive
    its searches.  [`First] on a fresh engine, [`Same] when the hash matches
    the previous stamp, [`Changed] when it differs — in which case the query
    cache has been flushed, so no search state crosses rule sets. *)
val note_ruleset : t -> int -> [ `First | `Same | `Changed ]

(** The rule-set hash last stamped on this engine, if any. *)
val ruleset_stamp : t -> int option

(** Execute a query, consulting the query cache first. *)
val run : t -> Query.t -> hit list

(** Execute a query bypassing the query cache (used by the ablation
    benchmarks to measure raw query cost).  Still builds lazy postings on
    first use. *)
val run_uncached : t -> Query.t -> hit list

(** ["scan"], ["lazy"], ["snapshot"] or ["delta"]. *)
val index_mode : t -> string

(** Number of postings categories built so far (0-7): lazy engines build
    only the categories queried so far, snapshot and delta engines hold
    all seven. *)
val built_categories : t -> int

(** Bytes held by the postings built so far (mapped or heap-side). *)
val postings_footprint : t -> int

(** Per-category postings build cost: [(category name, µs)] for each
    category built so far, in category order. *)
val index_build_timings : t -> (string * float) list

(** The calling domain's cumulative query counters
    ({!Cache.local_counts}) — deltas around a slice feed its provenance
    ledger, and deltas around a run its search statistics. *)
val local_counts : unit -> Cache.local_counts

(** Per-category accumulated compute cost, in category order: µs spent
    computing this category's cache misses (hits cost nothing). *)
val category_timings : t -> (Query.category * float) list
