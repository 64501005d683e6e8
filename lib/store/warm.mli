(** The one snapshot policy.  The CLI's [--load-index] and [--save-index],
    the daemon's [--snapshot] misses and [experiments --snapshot-dir] open
    and save snapshots only through {!open_} and {!save}.  A file that
    describes the program is loaded, and the app is analysed in full on
    it.  A file of an older version or of another app is patched
    ({!Snapshot.delta}): the one open whose persisted results a front end
    replays.  Without a file, or with one the load refuses, the program is
    disassembled once and indexed cold.  A save follows an analysis and
    carries that analysis's results and rule-set stamp. *)

type opened =
  | Loaded
  | Patched of Snapshot.delta_report * Backdroid.Resultcache.t option
      (** the diff and the file's persisted results, empty when it holds
          none: [None] when its results section is damaged, with a
          warning logged when the strings do not parse *)
  | Cold of Codec.error option
      (** [None]: no file.  [Some e]: the load refused the file, which is
          recorded as one [snapshot-refused] flight anomaly. *)

(** The engine for [program] from the snapshot at [path], or over
    [disassemble ()] when the open is cold. *)
val open_ :
  path:string -> disassemble:(unit -> Dex.Dexfile.t) -> Ir.Program.t ->
  Bytesearch.Engine.t * opened

(** Write [engine] to [path] ({!Snapshot.save}) with the per-sink results
    of the analysis [result] and the hash of the rule set it ran under.
    Returns the file size and the number of results written, or the
    message of the I/O error, which leaves [path] as it was. *)
val save :
  path:string -> ruleset_hash:int -> Bytesearch.Engine.t ->
  Backdroid.Driver.result -> (int * int, string) result
