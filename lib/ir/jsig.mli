(** Method and field signatures, in Soot's textual conventions.

    A full method signature prints as
    [<com.foo.Bar: void start(java.lang.String)>] and a sub-signature (the
    class-independent part used for virtual dispatch) as
    [void start(java.lang.String)]. *)

type meth = {
  cls : string;
  name : string;
  params : Types.t list;
  ret : Types.t;
}
type field = { fcls : string; fname : string; fty : Types.t; }
val meth :
  cls:string ->
  name:string -> params:Types.t list -> ret:Types.t -> meth
val field : cls:string -> name:string -> ty:Types.t -> field
val meth_equal : meth -> meth -> bool
val field_equal : field -> field -> bool
val is_init : meth -> bool
val is_clinit : meth -> bool

(** Class-independent part of a method signature: [ret name(p1,p2)].  Two
    methods with equal sub-signatures are in an overriding relation when their
    classes are. *)
val sub_signature : meth -> string

(** The method name in a sub-signature [ret name(p1,p2)] as
    {!sub_signature} renders it; [None] for any other shape. *)
val subsig_name : string -> string option

(** Full Soot-format signature: [<cls: ret name(p1,p2)>]. *)
val meth_to_string : meth -> string
val field_to_string : field -> string

(** Parse a Soot-format method signature produced by {!meth_to_string}.
    Raises [Invalid_argument], and no other exception, on malformed
    input. *)
val meth_of_string : string -> meth

(** [meth_parses b ~pos ~len] holds exactly when {!meth_of_string} parses
    the [len] bytes of [b] at [pos] — the same walk over the bytes where
    they lie, allocating nothing.  Raises [Invalid_argument] when the
    range is not inside [b]. *)
val meth_parses : Bvec.t -> pos:int -> len:int -> bool

(** Interned full signature (memoized {!meth_to_string}): [Sym.id] of the
    result is an O(1) dedup key, [Sym.to_string] the rendered signature. *)
val meth_sym : meth -> Sym.t

(** Interned sub-signature (memoized {!sub_signature}): overriding-relation
    checks become integer equality. *)
val subsig_sym : meth -> Sym.t
module Meth_key :
  sig
    type t = meth
    val equal : meth -> meth -> bool
    val hash : meth -> int
  end
module Meth_tbl :
  sig
    type key = Meth_key.t
    type 'a t = 'a Hashtbl.Make(Meth_key).t
    val create : int -> 'a t
    val clear : 'a t -> unit
    val reset : 'a t -> unit
    val copy : 'a t -> 'a t
    val add : 'a t -> key -> 'a -> unit
    val remove : 'a t -> key -> unit
    val find : 'a t -> key -> 'a
    val find_opt : 'a t -> key -> 'a option
    val find_all : 'a t -> key -> 'a list
    val replace : 'a t -> key -> 'a -> unit
    val mem : 'a t -> key -> bool
    val iter : (key -> 'a -> unit) -> 'a t -> unit
    val filter_map_inplace : (key -> 'a -> 'a option) -> 'a t -> unit
    val fold : (key -> 'a -> 'acc -> 'acc) -> 'a t -> 'acc -> 'acc
    val length : 'a t -> int
    val stats : 'a t -> Hashtbl.statistics
    val to_seq : 'a t -> (key * 'a) Seq.t
    val to_seq_keys : 'a t -> key Seq.t
    val to_seq_values : 'a t -> 'a Seq.t
    val add_seq : 'a t -> (key * 'a) Seq.t -> unit
    val replace_seq : 'a t -> (key * 'a) Seq.t -> unit
    val of_seq : (key * 'a) Seq.t -> 'a t
  end
module Field_key :
  sig
    type t = field
    val equal : field -> field -> bool
    val hash : field -> int
  end
module Field_tbl :
  sig
    type key = Field_key.t
    type 'a t = 'a Hashtbl.Make(Field_key).t
    val create : int -> 'a t
    val clear : 'a t -> unit
    val reset : 'a t -> unit
    val copy : 'a t -> 'a t
    val add : 'a t -> key -> 'a -> unit
    val remove : 'a t -> key -> unit
    val find : 'a t -> key -> 'a
    val find_opt : 'a t -> key -> 'a option
    val find_all : 'a t -> key -> 'a list
    val replace : 'a t -> key -> 'a -> unit
    val mem : 'a t -> key -> bool
    val iter : (key -> 'a -> unit) -> 'a t -> unit
    val filter_map_inplace : (key -> 'a -> 'a option) -> 'a t -> unit
    val fold : (key -> 'a -> 'acc -> 'acc) -> 'a t -> 'acc -> 'acc
    val length : 'a t -> int
    val stats : 'a t -> Hashtbl.statistics
    val to_seq : 'a t -> (key * 'a) Seq.t
    val to_seq_keys : 'a t -> key Seq.t
    val to_seq_values : 'a t -> 'a Seq.t
    val add_seq : 'a t -> (key * 'a) Seq.t -> unit
    val replace_seq : 'a t -> (key * 'a) Seq.t -> unit
    val of_seq : (key * 'a) Seq.t -> 'a t
  end
