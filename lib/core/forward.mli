(** Forward constant and points-to propagation over the SSG (Sec. V-B).

    The traversal starts with the SSG's static track (off-path <clinit>
    methods populate the global static fact map), then interprets the main
    track from each entry method, descending into invoked app methods and
    following the SSG's asynchronous / ICC / lifecycle continuation edges,
    until the sink statement is executed and the fact of its tracked
    parameter is captured. *)

(** Run the forward analysis over one SSG, interpreting at most 24 calls
    deep and 100,000 statements in all.  Returns the dataflow fact of the
    sink's tracked parameter (Unknown when the traversal cannot resolve
    it). *)
val run : Ir.Program.t -> Ssg.t -> Facts.t
