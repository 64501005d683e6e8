(** The analysis context: everything the backward slicing threads through
    one sink analysis, split into the app-wide {!shared} part (program,
    manifest, search engine, the Sec. IV-F sink-reachability cache, loop
    statistics) and the per-sink part (SSG under construction, budget
    accounting).  It also defines the caller-resolution {!strategy}
    enumeration, which both [Resolver] and [Provenance] index by.

    The {!budget} supersedes the slicer's bare [max_work]/[max_depth] ints:
    it adds an optional wall-clock deadline, and exhausting any limit is
    recorded so the slice returns a typed {!outcome} ([Partial] names the
    limits that were hit) instead of silently truncating. *)

type budget = {
  max_depth : int;            (** inter-procedural backtracking depth *)
  max_work : int;             (** total work items per sink *)
  max_contained_depth : int;  (** contained-method sub-slice recursion *)
  time_limit_ms : float option;
      (** wall-clock deadline per sink slice; [None] = unbounded *)
}

let default_budget =
  { max_depth = 48; max_work = 4000; max_contained_depth = 8;
    time_limit_ms = None }

type exhaustion = Work | Depth | Deadline

let exhaustion_to_string = function
  | Work -> "work"
  | Depth -> "depth"
  | Deadline -> "deadline"

type outcome = Complete | Partial of exhaustion list

let outcome_to_string = function
  | Complete -> "complete"
  | Partial ex ->
    Printf.sprintf "partial(%s)"
      (String.concat "," (List.map exhaustion_to_string ex))

(** Which Sec. IV mechanism answered a caller query. *)
type strategy = Basic | Advanced | Clinit | Lifecycle | Icc

let strategies = [| Basic; Advanced; Clinit; Lifecycle; Icc |]

let strategy_to_string = function
  | Basic -> "basic"
  | Advanced -> "advanced"
  | Clinit -> "clinit"
  | Lifecycle -> "lifecycle"
  | Icc -> "icc"

(** Dense slot of [s] in {!strategies}. *)
let strategy_index = function
  | Basic -> 0
  | Advanced -> 1
  | Clinit -> 2
  | Lifecycle -> 3
  | Icc -> 4

(* ------------------------------------------------------------------ *)

(** App-wide state shared by every sink slice of one group: the engine and
    program/manifest spaces, the group's sink-API-call reachability cache
    (Sec. IV-F) and the dead-loop statistics, which every group of a run
    records into ([loops], fresh unless given). *)
type shared = {
  engine : Bytesearch.Engine.t;
  program : Ir.Program.t;
  manifest : Manifest.App_manifest.t;
  loops : Loopdetect.stats;
  reach_cache : (int, bool) Hashtbl.t;  (* keyed by [Sym.id (Jsig.meth_sym m)] *)
}

let shared ?(loops = Loopdetect.create ()) ~engine ~manifest () =
  { engine; program = Bytesearch.Engine.program engine; manifest; loops;
    reach_cache = Hashtbl.create 64 }

(** One sink slice's context: the shared state plus the SSG under
    construction and the budget accounting. *)
type t = {
  engine : Bytesearch.Engine.t;
  program : Ir.Program.t;
  manifest : Manifest.App_manifest.t;
  loops : Loopdetect.stats;
  reach_cache : (int, bool) Hashtbl.t;  (* keyed by [Sym.id (Jsig.meth_sym m)] *)
  budget : budget;
  ssg : Ssg.t;
  started_at : float;
  mutable work_count : int;
  mutable exhausted : exhaustion list;  (* most recent first, deduplicated *)
  (* provenance accumulators: per-strategy resolution/caller counts (one
     slot per {!strategies} entry) and the creating domain's query-issue
     counters, deltaed at slice end *)
  prov_resolutions : int array;
  prov_callers : int array;
  prov_searches0 : Bytesearch.Cache.local_counts;
}

let create ?(budget = default_budget) (sh : shared) ~ssg =
  { engine = sh.engine; program = sh.program; manifest = sh.manifest;
    loops = sh.loops; reach_cache = sh.reach_cache; budget; ssg;
    started_at = Unix.gettimeofday (); work_count = 0; exhausted = [];
    prov_resolutions = Array.make (Array.length strategies) 0;
    prov_callers = Array.make (Array.length strategies) 0;
    prov_searches0 = Bytesearch.Cache.local_counts () }

let exhaust ctx kind =
  if not (List.mem kind ctx.exhausted) then
    ctx.exhausted <- kind :: ctx.exhausted

let deadline_hit ctx = List.mem Deadline ctx.exhausted

(** Has the slice's wall-clock deadline passed?  Free when no time limit is
    set; records the [Deadline] exhaustion on first detection. *)
let out_of_time ctx =
  match ctx.budget.time_limit_ms with
  | None -> false
  | Some _ when deadline_hit ctx -> true
  | Some limit_ms ->
    let elapsed_ms = (Unix.gettimeofday () -. ctx.started_at) *. 1000.0 in
    if elapsed_ms > limit_ms then begin
      exhaust ctx Deadline;
      true
    end
    else false

(** The typed result of the slice: [Complete], or [Partial limits] when any
    budget dimension was exhausted (limits in the order they were first
    hit). *)
let outcome ctx =
  match ctx.exhausted with
  | [] -> Complete
  | ex -> Partial (List.rev ex)
