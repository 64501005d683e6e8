(** Runs each tool over generated apps with wall-clock timing and (for the
    whole-app baselines) a real timeout, collecting the per-app measurements
    the experiments aggregate. *)

module G = Appgen.Generator
type tool = Backdroid_tool | Amandroid_tool | Flowdroid_cg_tool
val tool_name : tool -> string
type measurement = {
  app : string;
  tool : tool;
  seconds : float;
  timed_out : bool;
  errored : bool;
  sink_calls : int;
  size_stmts : int;
  size_mb : float;
  insecure : int;
  insecure_by_rule : (string * int) list;
      (** per rule family, in {!Rules.Builtin.family_names} order,
          zero-count families dropped *)
  search_cache_rate : float;
  sink_cache_rate : float;
  loops : int;
  cross_backward_loops : int;
  partial_sinks : int;
      (** BackDroid only: sink slices that exhausted their budget *)
  parallelism : int;    (** worker-pool size the measurement ran under *)
  incremental : bool;
      (** BackDroid only: the engine was delta-patched from an older
          snapshot ({!Store.Warm.open_}) instead of built from
          scratch *)
  resolutions : int;
      (** BackDroid only: caller resolutions taken by fresh slices,
          summed over the per-sink {!Backdroid.Provenance} ledgers *)
  resolved_callers : int;
      (** BackDroid only: callers those resolutions produced *)
  work_spent : int;
      (** BackDroid only: budget work units spent by fresh slices *)
}
val time : (unit -> 'a) -> 'a * float
val mb_of : G.app -> float

(** [engine] is a search engine opened from a snapshot (see
    {!Store.Warm.open_}), whose dexfile replaces the app's: analysis skips
    disassembly-dependent index construction and runs warm. *)
val run_backdroid :
  ?cfg:Backdroid.Driver.config ->
  ?engine:Bytesearch.Engine.t ->
  G.app -> measurement * Backdroid.Driver.result
val run_amandroid :
  ?cfg:Baseline.Amandroid.config ->
  timeout_s:float -> G.app -> measurement * Baseline.Amandroid.result
val run_flowdroid_cg :
  ?cfg:Baseline.Flowdroid_cg.config ->
  timeout_s:float -> G.app -> measurement
