(** The synthetic app generator: assembles framework stubs, filler code and
    planted sink flows into a complete app (program + manifest + disassembled
    dex + ground truth). *)

module Sinks = Framework.Sinks
type plant_spec = {
  shape : Shape.t;
  sink : Sinks.t;
  insecure : bool;
}
type config = {
  seed : int;
  name : string;
  filler_classes : int;
  filler_methods_per_class : int;
  filler_stmts_per_method : int;
  filler_dispatch_p : float;
  filler_fanout_max : int;
  filler_jump_locality : int;
  plants : plant_spec list;
  multidex : bool;
}
val default_config : config
type app = {
  name : string;
  config : config;
  program : Ir.Program.t;
  manifest : Manifest.App_manifest.t;
  dex : Dex.Dexfile.t;
  partitions : string list list option;  (** multidex split of the classes *)
  planted : Templates.planted list;
  size_stmts : int;
}

(** The app's dexfile as [generate ~build_dex:true] lays it out. *)
val disassemble : app -> Dex.Dexfile.t

(** Sanitise an app name into a Java package fragment. *)
val package_of_name : string -> string

(** Generate the app.  [build_dex:false] skips disassembly and leaves
    {!app.dex} as {!Dex.Dexfile.empty} — the warm-start path, where a
    snapshot supplies the index, or {!disassemble} builds it on a cold
    open. *)
val generate : ?build_dex:bool -> config -> app

(** Approximate on-disk size in "MB" for reporting, from our calibration of
    statements per megabyte (see {!Corpus.stmts_per_mb}). *)
val size_mb : stmts_per_mb:int -> app -> float

(** [mutate ?seed ?build_dex ~pct app] is the "v2" of [app] for
    incremental-re-analysis experiments: a deterministic fraction [pct] of
    the filler classes (at least one for [pct > 0], chosen by [seed]) get
    their method bodies edited — an appended constant assignment, so no
    existing statement index moves — while plants, manifest and ground
    truth carry over unchanged.  The program and dexfile are rebuilt (the
    rebuilt dexfile is single-dex even for a multidex [app]);
    [build_dex:false] leaves {!app.dex} empty, the delta warm-start path.
    A cold analysis of the result is the oracle a delta re-analysis must
    reproduce. *)
val mutate : ?seed:int -> ?build_dex:bool -> pct:float -> app -> app
