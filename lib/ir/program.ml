(** A whole program: the class table plus hierarchy queries and (CHA-style)
    virtual-dispatch resolution.  This is the "program analysis space" side of
    BackDroid; the "bytecode search space" is derived from it by
    {!module:Dex.Disasm}. *)

(* Class names are probed on every hierarchy step of the analysis; a
   string-specialised table compares them with [String.equal] where the
   polymorphic table ran [compare].  [String.hash] is [Hashtbl.hash] on
   strings, so buckets, and with them [fold_classes]' order, are those of
   the polymorphic table. *)
module Str_tbl = Hashtbl.Make (String)

module Str_map = Map.Make (String)

type t = {
  classes : Jclass.t Str_tbl.t;
  lock : Mutex.t;  (** serialises the hierarchy caches' writers *)
  ancestors : string list Str_map.t Atomic.t;
      (** per class queried so far: superclasses, then transitive
          interfaces *)
  children : string list Str_tbl.t option Atomic.t;
      (** parent -> direct children, built whole on the first query *)
  dispatch_cache : (string * string, (string * Jmethod.t) list) Hashtbl.t;
}

let create () =
  { classes = Str_tbl.create 512; lock = Mutex.create ();
    ancestors = Atomic.make Str_map.empty; children = Atomic.make None;
    dispatch_cache = Hashtbl.create 1024 }

let add_class p (c : Jclass.t) =
  Str_tbl.replace p.classes c.name c;
  Atomic.set p.ancestors Str_map.empty;
  Atomic.set p.children None;
  Hashtbl.reset p.dispatch_cache

let of_classes cs =
  let p = create () in
  List.iter (add_class p) cs;
  p

let find_class p name = Str_tbl.find_opt p.classes name

let iter_classes p f = Str_tbl.iter (fun _ c -> f c) p.classes

let fold_classes p f init =
  Str_tbl.fold (fun _ c acc -> f c acc) p.classes init

let app_classes p =
  fold_classes p (fun c acc -> if c.Jclass.is_system then acc else c :: acc) []

let find_method p (msig : Jsig.meth) =
  match find_class p msig.cls with
  | None -> None
  | Some c -> Jclass.find_method c ~name:msig.name ~params:msig.params

(** Walk up the superclass chain starting from (and excluding) [name]. *)
let superclasses p name =
  let rec go acc n =
    match find_class p n with
    | None -> List.rev acc
    | Some c ->
      (match c.super with
       | None -> List.rev acc
       | Some s -> go (s :: acc) s)
  in
  go [] name

(** All interfaces implemented by [name], transitively (through both the
    superclass chain and super-interfaces). *)
let interfaces_of p name =
  let seen = Hashtbl.create 8 in
  let acc = ref [] in
  let rec add_iface i =
    if not (Hashtbl.mem seen i) then begin
      Hashtbl.replace seen i ();
      acc := i :: !acc;
      match find_class p i with
      | Some ic -> List.iter add_iface ic.interfaces
      | None -> ()
    end
  in
  let rec walk n =
    match find_class p n with
    | None -> ()
    | Some c ->
      List.iter add_iface c.interfaces;
      (match c.super with Some s -> walk s | None -> ())
  in
  walk name;
  List.rev !acc

(* The hierarchy caches are immutable once published through their
   atomics: every pool domain of a session queries the same program, and a
   read takes no lock.  On a miss, [extend] runs under [p.lock], after a
   second look, and returns the answer with the extended cache to publish.
   The ancestors are cached per class, not for the whole program at once:
   an analysis asks for a fifth to a third of the classes. *)
let cached p cell lookup extend =
  match lookup (Atomic.get cell) with
  | Some v -> v
  | None ->
    Mutex.protect p.lock (fun () ->
        let cur = Atomic.get cell in
        match lookup cur with
        | Some v -> v
        | None ->
          let v, next = extend cur in
          Atomic.set cell next;
          v)

let build_children p =
  let tbl = Str_tbl.create 256 in
  let add parent child =
    let prev = Option.value ~default:[] (Str_tbl.find_opt tbl parent) in
    Str_tbl.replace tbl parent (child :: prev)
  in
  iter_classes p (fun c ->
      (match c.super with Some s -> add s c.name | None -> ());
      List.iter (fun i -> add i c.name) c.interfaces);
  tbl

let direct_subclasses p name =
  let children =
    cached p p.children Fun.id (fun _ ->
        let tbl = build_children p in
        (tbl, Some tbl))
  in
  Option.value ~default:[] (Str_tbl.find_opt children name)

(** All strict subclasses (and, for interfaces, implementers) of [name]. *)
let subclasses_transitive p name =
  let seen = Hashtbl.create 16 in
  let rec go n acc =
    List.fold_left
      (fun acc child ->
         if Hashtbl.mem seen child then acc
         else begin
           Hashtbl.replace seen child ();
           go child (child :: acc)
         end)
      acc (direct_subclasses p n)
  in
  List.rev (go name [])

let ancestors p name =
  cached p p.ancestors (Str_map.find_opt name) (fun m ->
      let a = superclasses p name @ interfaces_of p name in
      (a, Str_map.add name a m))

let is_subclass_of p ~sub ~super =
  String.equal sub super || List.exists (String.equal super) (ancestors p sub)

(** Resolve a sub-signature against [cls], walking up the hierarchy as the VM
    would.  Returns the concrete declaring method, if any. *)
let resolve_method p cls subsig =
  let rec go n =
    match find_class p n with
    | None -> None
    | Some c ->
      (match Jclass.find_method_by_subsig c subsig with
       | Some m -> Some (c, m)
       | None -> (match c.super with Some s -> go s | None -> None))
  in
  go cls

(** CHA dispatch: all concrete methods an [invoke-virtual] /
    [invoke-interface] on static receiver type [cls] with [subsig] may reach.
    Considers the resolved method in [cls] itself plus every overriding
    definition in subclasses / implementers. *)
let dispatch_targets_uncached p cls subsig =
  let targets = ref [] in
  let add (c : Jclass.t) (m : Jmethod.t) =
    if (not m.access.is_abstract) && not c.is_interface then
      targets := (c.name, m) :: !targets
  in
  (match resolve_method p cls subsig with
   | Some (c, m) -> add c m
   | None -> ());
  List.iter
    (fun sub ->
       match find_class p sub with
       | Some c ->
         (match Jclass.find_method_by_subsig c subsig with
          | Some m -> add c m
          | None -> ())
       | None -> ())
    (subclasses_transitive p cls);
  List.rev !targets

let dispatch_targets p cls subsig =
  match Hashtbl.find_opt p.dispatch_cache (cls, subsig) with
  | Some ts -> ts
  | None ->
    let ts = dispatch_targets_uncached p cls subsig in
    Hashtbl.replace p.dispatch_cache (cls, subsig) ts;
    ts

(** Does any strict subclass of [cls] override [subsig]?  Drives the paper's
    child-class signature-search rule (Sec. IV-A). *)
let subclass_overrides p cls subsig =
  List.exists
    (fun sub ->
       match find_class p sub with
       | Some c -> Option.is_some (Jclass.find_method_by_subsig c subsig)
       | None -> false)
    (subclasses_transitive p cls)

(** Does [msig]'s method override a method declared in a superclass or
    interface of its class?  Such callees need the advanced search. *)
let overrides_foreign_declaration p (msig : Jsig.meth) =
  let subsig = Jsig.sub_signature msig in
  List.exists
    (fun n ->
       match find_class p n with
       | Some c -> Option.is_some (Jclass.find_method_by_subsig c subsig)
       | None -> false)
    (ancestors p msig.cls)

(** Total number of statements in app (non-system) method bodies — our
    size metric, standing in for APK megabytes. *)
let code_size p =
  fold_classes p
    (fun c acc ->
       if c.Jclass.is_system then acc
       else
         acc
         + List.fold_left (fun a m -> a + Jmethod.stmt_count m) 0 c.methods)
    0

let method_count p =
  fold_classes p
    (fun c acc ->
       if c.Jclass.is_system then acc else acc + List.length c.methods)
    0

let class_count p =
  fold_classes p
    (fun c acc -> if c.Jclass.is_system then acc else acc + 1)
    0
