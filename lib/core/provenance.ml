(** Per-sink provenance ledger: the compact derivation record every sink
    report carries — how its verdict came to be.

    A fresh slice records the bytecode-search queries it issued (per
    Sec. IV-F category), the resolver strategies it took with the caller
    counts they produced, the budget it spent against its caps, the SSG it
    grew, and its wall-clock cost.  Replayed verdicts (result cache, PR 8)
    and sink-cache shortcuts record their source instead, so a warm report
    is always distinguishable from a freshly computed one.

    Every field but wall time is scheduling-independent, so a ledger with
    [p_wall_us] zeroed is equal whether its run ran alone or beside others
    on the same session (a daemon's concurrent requests).  It carries no
    search-cache hit/miss split: which slice pays the one miss per distinct
    query depends on scheduling. *)

type source =
  | Fresh                 (** computed by a backward slice in this run *)
  | Replayed              (** served from the persisted result cache *)
  | Sink_cache            (** Sec. IV-F sink-API reachability shortcut *)

let source_to_string = function
  | Fresh -> "fresh"
  | Replayed -> "replayed"
  | Sink_cache -> "sink-cache"

type t = {
  p_source : source;
  p_strategies : (string * int * int) list;
      (** (strategy, resolutions, callers found), non-zero entries only,
          in [Context.strategies] order *)
  p_searches : int;        (** bytecode-search queries issued by the slice *)
  p_categories : (string * int) list;
      (** queries per Sec. IV-F category, non-zero only *)
  p_work : int;            (** work items spent *)
  p_max_work : int;        (** budget cap *)
  p_depth_limit : int;
  p_deadline_ms : float option;
  p_ssg_nodes : int;
  p_ssg_edges : int;
  p_wall_us : float;       (** 0. for non-fresh sources *)
}

let empty ~source ~(budget : Context.budget) =
  { p_source = source; p_strategies = []; p_searches = 0;
    p_categories = []; p_work = 0;
    p_max_work = budget.Context.max_work;
    p_depth_limit = budget.Context.max_depth;
    p_deadline_ms = budget.Context.time_limit_ms; p_ssg_nodes = 0;
    p_ssg_edges = 0; p_wall_us = 0.0 }

(** Ledger of a verdict replayed from the persisted result cache. *)
let replayed ~budget = empty ~source:Replayed ~budget

(** Ledger of a verdict served by the sink-API reachability shortcut. *)
let sink_cache_served ~budget = empty ~source:Sink_cache ~budget

(** Ledger of a freshly sliced sink: drains the accumulators of [ctx] and
    deltas the domain-local search counters against the slice-start
    snapshot (the slice ran entirely on this domain). *)
let fresh_of (ctx : Context.t) ~wall_us =
  let l0 = ctx.Context.prov_searches0 in
  let l1 = Bytesearch.Cache.local_counts () in
  let strategies = ref [] in
  for i = Array.length Context.strategies - 1 downto 0 do
    let r = ctx.Context.prov_resolutions.(i)
    and c = ctx.Context.prov_callers.(i) in
    if r > 0 || c > 0 then
      strategies :=
        (Context.strategy_to_string Context.strategies.(i), r, c)
        :: !strategies
  done;
  let categories = ref [] in
  for i = Bytesearch.Query.n_categories - 1 downto 0 do
    let n =
      l1.Bytesearch.Cache.lc_by_cat.(i) - l0.Bytesearch.Cache.lc_by_cat.(i)
    in
    if n > 0 then
      categories :=
        ( Bytesearch.Query.category_to_string
            Bytesearch.Query.all_categories.(i),
          n )
        :: !categories
  done;
  { p_source = Fresh; p_strategies = !strategies;
    p_searches = l1.Bytesearch.Cache.lc_total - l0.Bytesearch.Cache.lc_total;
    p_categories = !categories; p_work = ctx.Context.work_count;
    p_max_work = ctx.Context.budget.Context.max_work;
    p_depth_limit = ctx.Context.budget.Context.max_depth;
    p_deadline_ms = ctx.Context.budget.Context.time_limit_ms;
    p_ssg_nodes = Ssg.node_count ctx.Context.ssg;
    p_ssg_edges = Ssg.edge_count ctx.Context.ssg; p_wall_us = wall_us }

(* -- Rendering -------------------------------------------------------- *)

(** Multi-line human rendering for [analyze --explain].  [timing:false]
    omits the wall-clock line (stable output for tests and diffs). *)
let render ?(timing = true) t =
  let b = Buffer.create 256 in
  let bpf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  bpf "    source: %s\n" (source_to_string t.p_source);
  (match t.p_source with
   | Replayed | Sink_cache -> ()
   | Fresh ->
     if t.p_strategies <> [] then
       bpf "    strategies: %s\n"
         (String.concat ", "
            (List.map
               (fun (n, r, c) -> Printf.sprintf "%s x%d (%d callers)" n r c)
               t.p_strategies));
     bpf "    searches: %d issued%s\n" t.p_searches
       (if t.p_categories = [] then ""
        else
          Printf.sprintf " — %s"
            (String.concat ", "
               (List.map
                  (fun (c, n) -> Printf.sprintf "%s %d" c n)
                  t.p_categories)));
     bpf "    budget: %d/%d work, depth cap %d%s\n" t.p_work t.p_max_work
       t.p_depth_limit
       (match t.p_deadline_ms with
        | None -> ""
        | Some ms -> Printf.sprintf ", deadline %.0fms" ms);
     bpf "    ssg: %d nodes, %d edges\n" t.p_ssg_nodes t.p_ssg_edges;
     if timing then bpf "    wall: %.0fus\n" t.p_wall_us);
  Buffer.contents b
