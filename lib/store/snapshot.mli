(** Persistent preprocessing snapshots (warm-start store).

    A snapshot captures the index the preprocessing phase computes from a
    program — the arena's symbol table, the dexfile's hit {!Dex.Arena},
    all seven per-category search postings, the per-class
    {!Dex.Classmap} (names, line/slot ranges and one IR hash per class)
    and, optionally, persisted per-sink analysis results — in one
    {!Codec} container, so a warm start maps it back instead of
    disassembling and indexing again.  It stores no line text: a loaded
    dexfile renders its text from the program's IR when something first
    reads it ([Dex.Dexfile.text]), which an analysis over the loaded
    engine never does.  The store owns only the file sections: postings
    are the engine's {!Bytesearch.Engine.Packed} tables written and mapped
    as they are (keys, byte offsets, coded runs), and the arena columns
    likewise.  Payloads load as mmapped {!Ivec.t}s and {!Bvec.t}s: they
    live off the OCaml heap, so the warm path also carries less GC
    pressure than a cold build.

    A snapshot depends only on its app.  The arena's sym column and every
    postings key hold ids local to the arena's symbol table, which its
    index pass numbered ({!Dex.Arena}); save writes that table as it is,
    and load interns its strings in one batch and keeps the result as the
    loaded arena's table.  No mapped vector is rewritten, and a warm
    engine returns hits byte-identical to a cold one, whatever the
    loading process interned before.

    A snapshot keeps no class tokens, only the postings built from them, so
    a loaded dexfile's class-tokens postings cannot be rebuilt
    ([Dex.Dexfile.iter_tokens]) — they never need to be. *)

(** [default_path ~dir ~app_id] is the conventional snapshot location:
    [dir]/[sanitized app_id].v[format_version].bdix.  The version is baked
    into the name so a format bump cold-starts instead of failing the
    version check. *)
val default_path : dir:string -> app_id:string -> string

(** Serialize [engine]'s symbols, arena, classmap and all seven postings
    categories (building any not yet built, the classmap included) to
    [path], atomically, in format {!Codec.format_version}.  The symbols
    are the arena's own table, so the bytes do not depend on what else the
    process interned, before the index pass or after it (as a daemon's
    concurrent requests intern in scheduling order): one app saves the
    same bytes from a fresh process or a daemon, at any [--jobs].
    Returns the file size in bytes.  Every section streams from where the
    engine holds it — arena columns and postings runs as they are, and the
    owner table's stored entries (a loaded engine's, and those a delta
    carried over) as the bytes they were mapped from, decoded or not; only
    owners an index pass built are rendered — and no text is rendered.
    save -> load -> save is byte-identical, for cold, loaded and delta
    engines alike.  An I/O failure raises [Sys_error], leaves [path] as it
    was and removes the temp file.

    [ruleset_hash] (default: the engine's own
    {!Bytesearch.Engine.ruleset_stamp}, if any) records the detection-rule-set
    content hash the snapshot was produced under; {!load} stamps it back
    onto the warm engine so an analysis under a different rule set notices
    the change instead of silently trusting warm state.

    [results] (default empty) is an opaque array of persisted analysis
    results — one serialized entry per cached per-sink verdict (see
    [Backdroid.Resultcache]; the store does not interpret the strings).
    Read back with {!load_results}. *)
val save :
  ?ruleset_hash:int ->
  ?results:string array ->
  path:string ->
  Bytesearch.Engine.t ->
  int

(** [load ?prefault ~path program] maps the snapshot at [path] back into a
    ready engine over [program] (which supplies the analysis-side IR and,
    if something reads it, the text; the snapshot supplies the index).
    The file is mapped once as bytes and once as native ints, and every
    section is a view into one of the two.  Postings stay coded (the
    engine decodes runs on demand), and the owner table stays in its
    mapped sections: each owner's signature and class are decoded when a
    hit first names them, so a warm analysis decodes only the owners it
    reads.  The symbol table is interned in one batch, straight from its
    section, and becomes the arena's table.  Validates structure fully
    before use — every coded run is walked and range-checked, every owner
    signature is checked to parse ({!Ir.Jsig.meth_parses}), and the symbol
    table must hold each string once — so a damaged file yields a typed
    {!Codec.error}, never a crash, a later failure or a silently wrong
    engine; a file of another format version (a retired v1 or v2 file,
    say) fails with [Bad_version].  The load does not compare [program]
    with the file, beyond the dexfile's text pass refusing a class that
    does not match its entry: {!delta} is the checked path, which a warm
    start takes.

    The hot sections — the five arena columns and every category's postings
    directory (keys and offsets) — are always prefaulted: they are a few
    pages each and every query touches them, so paying their page faults at
    load time makes the first warm queries as fast as steady state.
    [prefault] (default false) extends the walk to the postings bodies,
    which the checksum pass and the validation have already read.
    Slots must follow line order, the class map's entries must tile the
    lines and the slots exactly, in order, and each entry's slots must lie
    in its line range, or the load fails with [Corrupt]; so does a file
    with lines and no class map. *)
val load :
  ?prefault:bool ->
  path:string ->
  Ir.Program.t ->
  (Bytesearch.Engine.t, Codec.error) result

(** The persisted analysis results of the snapshot at [path] (the [results]
    passed to {!save}), or [[||]] if the file predates result persistence
    or none were saved.  Cheap: maps only the two result sections, not the
    engine state. *)
val load_results : path:string -> (string array, Codec.error) result

(** What {!delta} did: per-class reuse/re-render counts and the postings
    carried over versus rebuilt. *)
type delta_report = {
  d_total : int;        (** classes in the new build *)
  d_unchanged : int;    (** classes spliced from the old snapshot *)
  d_changed : int;      (** classes present in both but re-rendered *)
  d_added : int;        (** classes only in the new build *)
  d_removed : int;      (** old-snapshot classes absent from the new build *)
  d_lines_reused : int;
  d_lines_rendered : int;
  d_carried_postings : int;
      (** postings (slots, over all categories) carried over from the old
          engine *)
  d_rebuilt_postings : int;
      (** postings (slots) built fresh for re-rendered classes *)
}

val delta_report_to_string : delta_report -> string

(** [unchanged r] holds when the diff behind [r] found no class changed,
    added or removed: the engine {!delta_of_engine} returned is the one it
    was given. *)
val unchanged : delta_report -> bool

(** [delta_of_engine old program] patches a {e resident} engine — the
    previous app version's index, still in memory — into an engine for
    [program]: classes whose structural {!Ir.Irhash} matches the old
    engine's classmap entry keep their arena rows and postings entries,
    copied as blocks; only changed or added classes are indexed (through
    the statement walk of a cold render), and
    {!Bytesearch.Engine.patch} merges their postings into the carried
    ones.  No text is read or written, and there is no file I/O, no
    parsing and no interning but the re-indexed classes' symbols, which
    extend the old arena's table — this is the maintained-index fast
    path an app store uses when version N+1 of an app arrives while
    version N's index is warm, and what {!delta} runs on the engine it
    loaded.  The old engine is left untouched and remains usable.

    Every class is diffed first.  When none changed, was added or was
    removed, in whatever order the two builds list them, [old] already
    answers for [program]: it is returned as it is ([==]), with a report
    of every class and line reused and no postings carried or rebuilt, and
    no [store.delta.*] metric or span is recorded.

    The resulting engine answers every query identically to a cold build
    of [program] (the property tests assert this), and
    {!Bytesearch.Engine.index_mode} reports ["delta"].

    Fails with a typed {!Codec.error} when the old engine has lines but no
    class map — callers fall back to a cold build. *)
val delta_of_engine :
  Bytesearch.Engine.t ->
  Ir.Program.t ->
  (Bytesearch.Engine.t * delta_report, Codec.error) result

(** [delta ~path program] is {!load} followed by {!delta_of_engine}: the
    warm start that {!Warm.open_} takes for every front end.  An
    unchanged program gets the loaded engine back; otherwise the engine
    is built incrementally against the old snapshot.  The load performs
    the full structural validation, so a damaged snapshot fails with a
    typed {!Codec.error}, and the open falls back to a cold build. *)
val delta :
  path:string ->
  Ir.Program.t ->
  (Bytesearch.Engine.t * delta_report, Codec.error) result
