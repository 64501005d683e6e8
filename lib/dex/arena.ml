(** Compact struct-of-arrays hit arena over a disassembled dex plaintext.

    One slot per instruction line a search can return: a keyed line, or
    one an operand of which holds a [';'] (so it may carry a class token);
    a text scan locates the other instruction lines from their class's
    layout.  Each slot records the line's position, IR statement index,
    owner and — when the disassembler classified the line — the searchable
    operand, as an id local to the arena, and its category.  The index pass ({!Writer})
    fills these columns as it walks each instruction line, before any text
    exists.  The search engine's per-category postings are sorted int
    vectors of slots, and a hit record is materialised from a slot only
    when a query actually returns it.

    The unboxed off-heap columns replace the per-hit records the old eager
    index allocated for every instruction line up front: seven hashtables of
    boxed [hit list] buckets become a handful of flat vectors shared by all
    categories, which both shrinks the live heap and stops the GC from
    tracing (or even seeing) a word per indexed line. *)

(* Category codes for [cat]; [-1] marks a slot of class tokens only. *)
let cat_invoke = 0
let cat_new_instance = 1
let cat_const_class = 2
let cat_const_string = 3
let cat_field = 4
let cat_static_field = 5
let cat_none = -1

module Owners = struct
  type stored = {
    sig_offsets : Ivec.t;
    sigs : Bvec.t;
    cls_offsets : Ivec.t;
    classes : Bvec.t;
  }

  (* Entries [\[0, n_stored)] also have their text in [stored]; until
     first read such an entry's cells hold the sentinels below, which no
     decode returns, so a load allocates two arrays and nothing per entry
     (a [Lazy.t] per entry cost about what parsing them all did).  Two
     domains may decode one entry at once: each stores an equal value, and
     every reader compares owners structurally. *)
  type t = {
    meths : Ir.Jsig.meth array;
    cls : string array;
    stored : stored;
    n_stored : int;
  }

  (* built at run time, so that no other value is physically them *)
  let undecoded =
    Ir.Jsig.meth ~cls:(Sys.opaque_identity "") ~name:"" ~params:[]
      ~ret:Ir.Types.Void

  let undecoded_cls = String.make (Sys.opaque_identity 1) '?'

  let no_text =
    { sig_offsets = Ivec.make 1 0; sigs = Bvec.create 0;
      cls_offsets = Ivec.make 1 0; classes = Bvec.create 0 }

  let m_decoded = Obs.Metrics.counter "dex.owners.decoded"

  let empty = { meths = [||]; cls = [||]; stored = no_text; n_stored = 0 }

  (* The offsets start at 0, ascend and end at the blob's length. *)
  let offsets_ok (offs : Ivec.t) len =
    let n = Ivec.length offs - 1 in
    n >= 0
    && Ivec.get offs 0 = 0
    && Ivec.get offs n = len
    &&
    let ok = ref true in
    for i = 0 to n - 1 do
      if Bigarray.Array1.get offs (i + 1) < Bigarray.Array1.get offs i then
        ok := false
    done;
    !ok

  let of_stored (st : stored) =
    let n = Ivec.length st.sig_offsets - 1 in
    if not (offsets_ok st.sig_offsets (Bvec.length st.sigs)) then
      Error "owner signatures: offsets inconsistent with blob"
    else if
      Ivec.length st.cls_offsets <> n + 1
      || not (offsets_ok st.cls_offsets (Bvec.length st.classes))
    then Error "owner classes: offsets inconsistent with blob"
    else begin
      let bad = ref (-1) in
      for i = n - 1 downto 0 do
        let lo = Bigarray.Array1.get st.sig_offsets i in
        let len = Bigarray.Array1.get st.sig_offsets (i + 1) - lo in
        if not (Ir.Jsig.meth_parses st.sigs ~pos:lo ~len) then bad := i
      done;
      if !bad >= 0 then
        Error (Printf.sprintf "owner %d: malformed signature" !bad)
      else
        Ok
          { meths = Array.make n undecoded; cls = Array.make n undecoded_cls;
            stored = st; n_stored = n }
    end

  let append t meths cls =
    if Array.length meths <> Array.length cls then
      invalid_arg "Arena.Owners.append: lengths differ";
    { t with meths = Array.append t.meths meths; cls = Array.append t.cls cls }

  let length t = Array.length t.meths
  let stored t = t.stored
  let n_stored t = t.n_stored

  (* entry [i]'s stored text *)
  let slice (offs : Ivec.t) blob i =
    let lo = Ivec.get offs i in
    Bvec.sub_string blob lo (Ivec.get offs (i + 1) - lo)

  let meth t i =
    let m = t.meths.(i) in
    if m != undecoded then m
    else begin
      let m =
        Ir.Jsig.meth_of_string (slice t.stored.sig_offsets t.stored.sigs i)
      in
      t.meths.(i) <- m;
      Obs.Metrics.incr m_decoded;
      m
    end

  let cls t i =
    let c = t.cls.(i) in
    if c != undecoded_cls then c
    else begin
      let c = slice t.stored.cls_offsets t.stored.classes i in
      t.cls.(i) <- c;
      c
    end

  let cls_equal t i s =
    let c = t.cls.(i) in
    if c != undecoded_cls then String.equal c s
    else
      let pos = Ivec.get t.stored.cls_offsets i in
      Ivec.get t.stored.cls_offsets (i + 1) - pos = String.length s
      && Bvec.equal_string t.stored.classes ~pos s
end

type t = {
  line_idx : Ivec.t;  (** slot -> line number in the dexfile's texts *)
  stmt_idx : Ivec.t;  (** slot -> IR statement index; [-1] = none *)
  owner_id : Ivec.t;  (** slot -> index into [owners] *)
  cat : Ivec.t;       (** slot -> category code; [cat_none] = unkeyed *)
  sym : Ivec.t;       (** slot -> local id of the operand; [-1] = unkeyed *)
  syms : Sym.t array; (** local id -> symbol, one-to-one *)
  owners : Owners.t;  (** unique enclosing methods and their classes *)
}

let length t = Ivec.length t.line_idx
