(** The self-contained slicing graph (SSG, Sec. V-A).

    One SSG is generated per sink API call.  It records (i) the raw typed
    statements visited by the backward slicing, wrapped as {!type:unit_}
    nodes; (ii) every inter-procedural relationship resolved by bytecode
    search, as typed {!type:edge}s; (iii) the global static-field taint
    set; and (iv) a special static track for off-path [<clinit>] methods
    added on demand.  The per-method taint sets of the paper's hierarchical
    taint map live in the slicer while it scans a method; the SSG keeps no
    copy of them, since nothing downstream reads one. *)

open Ir

(** An SSGUnit: a raw typed statement plus its node identity. *)
type unit_ = {
  id : int;
  meth : Jsig.meth;
  stmt_idx : int;
  stmt : Stmt.t;
}

(** Inter-procedural relationships uncovered by the bytecode searches. *)
type edge =
  | Call of { caller : Jsig.meth; site : int; callee : Jsig.meth }
      (** common cross-method edge from a caller site to the callee *)
  | Contained of { caller : Jsig.meth; site : int; callee : Jsig.meth }
      (** a tracked method invoking its own contained method (both calling
          and return edges, per the paper) *)
  | Async of {
      caller : Jsig.meth;     (** the chain head holding the constructor *)
      ctor_site : int;
      ctor_local : string;
      callee : Jsig.meth;     (** e.g. [run()], [onClick()] *)
      chain : (Jsig.meth * int) list;
          (** intermediate methods + their call sites, Fig. 4 style *)
      ending : Jsig.meth;     (** the ending method, e.g. [Executor.execute] *)
    }
  | Icc of {
      caller : Jsig.meth;
      site : int;             (** the ICC call site, e.g. [startService] *)
      handler : Jsig.meth;    (** the component entry handler entered *)
    }
  | Lifecycle of { pre : Jsig.meth; handler : Jsig.meth }
      (** same-component handler ordering, e.g. onCreate before onResume *)

type t = {
  sink : Framework.Sinks.t;
  sink_meth : Jsig.meth;        (** method containing the sink call *)
  sink_site : int;
  mutable nodes : unit_ list;
  mutable edges : edge list;
  mutable entry_methods : Jsig.meth list;
      (** methods where backtracking reached a registered entry point *)
  mutable static_track : Jsig.meth list;
      (** off-path [<clinit>] methods added on demand *)
  mutable global_static_taints : Jsig.field list;
  mutable next_id : int;
  mutable reachable : bool;
}

let create ~sink ~sink_meth ~sink_site =
  { sink; sink_meth; sink_site; nodes = []; edges = []; entry_methods = [];
    static_track = []; global_static_taints = []; next_id = 0;
    reachable = false }

let add_node t ~meth ~stmt_idx ~stmt =
  let id = t.next_id in
  t.next_id <- id + 1;
  let u = { id; meth; stmt_idx; stmt } in
  t.nodes <- u :: t.nodes;
  u

let add_edge t e = t.edges <- e :: t.edges

let add_entry t m =
  if not (List.exists (Jsig.meth_equal m) t.entry_methods) then
    t.entry_methods <- m :: t.entry_methods

let add_static_track t m =
  if not (List.exists (Jsig.meth_equal m) t.static_track) then
    t.static_track <- m :: t.static_track

let add_global_static_taint t f =
  if not (List.exists (Jsig.field_equal f) t.global_static_taints) then
    t.global_static_taints <- f :: t.global_static_taints

let remove_global_static_taint t f =
  t.global_static_taints <-
    List.filter (fun g -> not (Jsig.field_equal g f)) t.global_static_taints

let node_count t = List.length t.nodes
let edge_count t = List.length t.edges

(** Async / ICC / lifecycle continuation edges out of [m] — followed by the
    forward analysis after interpreting [m] itself. *)
let continuations_of t m =
  List.filter
    (fun e ->
       match e with
       | Async { caller; _ } -> Jsig.meth_equal caller m
       | Icc { caller; _ } -> Jsig.meth_equal caller m
       | Lifecycle { pre; _ } -> Jsig.meth_equal pre m
       | Call _ | Contained _ -> false)
    t.edges

(** Fig. 6-style textual dump of the SSG. *)
let pp ppf t =
  Fmt.pf ppf "SSG for sink %s at %s:%d (reachable=%b)@."
    t.sink.Framework.Sinks.name
    (Jsig.meth_to_string t.sink_meth) t.sink_site t.reachable;
  let by_meth = Hashtbl.create 8 in
  List.iter
    (fun u ->
       let k = Jsig.meth_to_string u.meth in
       let prev = Option.value ~default:[] (Hashtbl.find_opt by_meth k) in
       Hashtbl.replace by_meth k (u :: prev))
    t.nodes;
  (if t.static_track <> [] then begin
     Fmt.pf ppf "  [static track]@.";
     List.iter (fun m -> Fmt.pf ppf "    %s@." (Jsig.meth_to_string m))
       t.static_track
   end);
  Hashtbl.iter
    (fun k us ->
       Fmt.pf ppf "  block %s@." k;
       List.iter
         (fun u -> Fmt.pf ppf "    [%d] %3d: %s@." u.id u.stmt_idx (Stmt.to_string u.stmt))
         (List.sort (fun a b -> compare a.stmt_idx b.stmt_idx) us))
    by_meth;
  List.iter
    (fun e ->
       match e with
       | Call { caller; site; callee } ->
         Fmt.pf ppf "  edge call %s:%d -> %s@." (Jsig.meth_to_string caller) site
           (Jsig.meth_to_string callee)
       | Contained { caller; site; callee } ->
         Fmt.pf ppf "  edge contained %s:%d <-> %s@." (Jsig.meth_to_string caller)
           site (Jsig.meth_to_string callee)
       | Async { caller; callee; ending; chain; _ } ->
         Fmt.pf ppf "  edge async %s -> %s (ending %s, chain %d)@."
           (Jsig.meth_to_string caller) (Jsig.meth_to_string callee)
           (Jsig.meth_to_string ending) (List.length chain)
       | Icc { caller; site; handler } ->
         Fmt.pf ppf "  edge icc %s:%d ==> %s@." (Jsig.meth_to_string caller) site
           (Jsig.meth_to_string handler)
       | Lifecycle { pre; handler } ->
         Fmt.pf ppf "  edge lifecycle %s >> %s@." (Jsig.meth_to_string pre)
           (Jsig.meth_to_string handler))
    t.edges;
  List.iter
    (fun m -> Fmt.pf ppf "  entry %s@." (Jsig.meth_to_string m))
    t.entry_methods
