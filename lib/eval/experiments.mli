(** One function per table / figure of the paper's evaluation, each printing
    the measured series next to the numbers the paper reports.

    Time scaling: wall-clock seconds on our synthetic substrate stand in for
    the paper's minutes on real APKs.  The timeout given to the whole-app
    baselines plays the paper's 300-minute timeout, so
    [minutes_per_second = 300 / timeout_s] converts measured seconds into
    "paper-minute equivalents" for the distribution buckets. *)

module G = Appgen.Generator
module Corpus = Appgen.Corpus
module Shape = Appgen.Shape
type opts = {
  scale : float;
  count : int;
  timeout_s : float;
  flowdroid_timeout_s : float;
  seed : int;
  jobs : int;   (** per-app fan-out width (1 = sequential) *)
  snapshot_dir : string option;
      (** warm-cache mode: per-app preprocessing snapshots ([.bdix]) are
          saved here after an app's first analysis, with its results, and
          reused on the next run — apps with a snapshot skip disassembly
          and index construction entirely (a damaged snapshot logs a
          warning and rebuilds cold, a changed app's is delta-patched and
          re-saved, and one that cannot be saved logs a warning).  The
          directory is made if its parent exists. *)
}
val default_opts : opts
val minutes_per_second : opts -> float
type corpus_run = {
  backdroid : Runner.measurement list;
  amandroid : Runner.measurement list;
  flowdroid : Runner.measurement list;
}

(** One generate-analyze pass per app, fanned out [opts.jobs] apps at a time
    over a domain pool.  Each app is generated, analysed and timed within
    one task, so measurements match sequential mode (timings aside) and come
    back in corpus order. *)
val run_corpus : ?progress:(string -> unit) -> opts -> corpus_run
val pf : ('a, out_channel, unit) format -> 'a
val header : string -> unit
val minutes : opts -> Runner.measurement -> float
val time_buckets : float list
val bucket_labels : string list
val print_distribution : opts -> Runner.measurement list -> unit
val table1 : ?seed:int -> unit -> unit
val fig1 : opts -> corpus_run -> unit
val fig7 : opts -> corpus_run -> unit
val fig8 : opts -> corpus_run -> unit
val speedup_summary : opts -> corpus_run -> unit
val fig9 : opts -> corpus_run -> unit
type detection_row = {
  group : string;
  mutable total : int;
  mutable bd_detected : int;
  mutable am_detected : int;
}
val detection : ?timeout_s:float -> unit -> unit
val enhancements : corpus_run -> unit

(** One side of the search ablation over an app generated without a
    dexfile: the side disassembles it, then times the creation of an
    indexed ([indexed]) or a scan engine and the analysis, and then the
    sink query's uncached cost on that engine. *)
type ablation_side = {
  ab_before : int * int;
      (** [dex.text.renders] and [search.postings.builds] counted from the
          disassembly to the clock start: [(0, 0)] when the clock starts
          with no text and no postings built *)
  ab_during : int * int;  (** the same two counted inside the clock *)
  ab_seconds : float;     (** engine creation and analysis *)
  ab_query_us : float;    (** one uncached sink query, mean over ≥ 2 ms *)
}

val ablation_side : indexed:bool -> G.app -> ablation_side

(** The indexed and the scan side over [count] (default 24) corpus apps:
    the medians of their per-app and per-query costs, and which side is
    faster at each. *)
val ablation_search : ?count:int -> opts -> unit

(** Compact pass/deviation summary of the headline reproduction claims. *)
val reproduction_summary : opts -> corpus_run -> unit

(** Run every experiment in sequence, printing paper-vs-measured sections;
    [csv_path] additionally exports the raw per-app measurements. *)
val run_all : ?opts:opts -> ?csv_path:string option -> unit -> unit
