(** The self-contained slicing graph (SSG, Sec. V-A).

    One SSG is generated per sink API call.  It records (i) the raw typed
    statements visited by the backward slicing, wrapped as {!type:unit_}
    nodes; (ii) every inter-procedural relationship resolved by bytecode
    search, as typed {!type:edge}s; (iii) the global static-field taint
    set; and (iv) a special static track for off-path [<clinit>] methods
    added on demand.  The per-method taint sets of the paper's hierarchical
    taint map live in the slicer while it scans a method; the SSG keeps no
    copy of them, since nothing downstream reads one. *)

(** An SSGUnit: a raw typed statement plus its node identity. *)
type unit_ = {
  id : int;
  meth : Ir.Jsig.meth;
  stmt_idx : int;
  stmt : Ir.Stmt.t;
}

(** Inter-procedural relationships uncovered by the bytecode searches. *)
type edge =
    Call of { caller : Ir.Jsig.meth; site : int; callee : Ir.Jsig.meth; }
  | Contained of { caller : Ir.Jsig.meth; site : int; callee : Ir.Jsig.meth;
    }
  | Async of { caller : Ir.Jsig.meth; ctor_site : int; ctor_local : string;
      callee : Ir.Jsig.meth; chain : (Ir.Jsig.meth * int) list;
      ending : Ir.Jsig.meth;
    }
  | Icc of { caller : Ir.Jsig.meth; site : int; handler : Ir.Jsig.meth; }
  | Lifecycle of { pre : Ir.Jsig.meth; handler : Ir.Jsig.meth; }

(** same-component handler ordering, e.g. onCreate before onResume *)
type t = {
  sink : Framework.Sinks.t;
  sink_meth : Ir.Jsig.meth;
  sink_site : int;
  mutable nodes : unit_ list;
  mutable edges : edge list;
  mutable entry_methods : Ir.Jsig.meth list;
  mutable static_track : Ir.Jsig.meth list;
  mutable global_static_taints : Ir.Jsig.field list;
  mutable next_id : int;
  mutable reachable : bool;
}
val create :
  sink:Framework.Sinks.t -> sink_meth:Ir.Jsig.meth -> sink_site:int -> t
val add_node :
  t -> meth:Ir.Jsig.meth -> stmt_idx:int -> stmt:Ir.Stmt.t -> unit_
val add_edge : t -> edge -> unit
val add_entry : t -> Ir.Jsig.meth -> unit
val add_static_track : t -> Ir.Jsig.meth -> unit
val add_global_static_taint : t -> Ir.Jsig.field -> unit
val remove_global_static_taint : t -> Ir.Jsig.field -> unit
val node_count : t -> int
val edge_count : t -> int

(** Async / ICC / lifecycle continuation edges out of [m] — followed by the
    forward analysis after interpreting [m] itself. *)
val continuations_of : t -> Ir.Jsig.meth -> edge list

(** Fig. 6-style textual dump of the SSG. *)
val pp : Format.formatter -> t -> unit
