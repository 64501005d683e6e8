(** The synthetic app generator: assembles framework stubs, filler code and
    planted sink flows into a complete app (program + manifest + disassembled
    dex + ground truth). *)

module Sinks = Framework.Sinks

type plant_spec = {
  shape : Shape.t;
  sink : Sinks.t;
  insecure : bool;
}

type config = {
  seed : int;
  name : string;
  filler_classes : int;
  filler_methods_per_class : int;
  filler_stmts_per_method : int;
  filler_dispatch_p : float;
      (** fraction of filler methods containing a virtual-dispatch site *)
  filler_fanout_max : int;
      (** maximum static-call fan-out per filler method; higher values make
          the app's calling-context space explode for whole-app analyses *)
  filler_jump_locality : int;
      (** 0 = calls jump anywhere forward (shallow chains); k>0 = calls stay
          within the next k classes (chains as deep as the class count) *)
  plants : plant_spec list;
  multidex : bool;
}

let default_config =
  { seed = 1;
    name = "com.example.app";
    filler_classes = 10;
    filler_methods_per_class = 6;
    filler_stmts_per_method = 8;
    filler_dispatch_p = 0.25;
    filler_fanout_max = 3;
    filler_jump_locality = 0;
    plants = [];
    multidex = false }

type app = {
  name : string;
  config : config;
  program : Ir.Program.t;
  manifest : Manifest.App_manifest.t;
  dex : Dex.Dexfile.t;
  partitions : string list list option;  (** multidex split of the classes *)
  planted : Templates.planted list;
  size_stmts : int;
}

let dexfile program = function
  | Some parts -> Dex.Dexfile.of_partitions program parts
  | None -> Dex.Dexfile.of_program program

let disassemble app = dexfile app.program app.partitions

(** Sanitise an app name into a Java package fragment. *)
let package_of_name name =
  let b = Buffer.create (String.length name) in
  String.iter
    (fun c ->
       if (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c = '.' then
         Buffer.add_char b c
       else if c >= 'A' && c <= 'Z' then Buffer.add_char b (Char.lowercase_ascii c)
       else Buffer.add_char b '_')
    name;
  Buffer.contents b

let generate ?(build_dex = true) (cfg : config) =
  let rng = Rng.create cfg.seed in
  let pkg = package_of_name cfg.name in
  (* shared-util plants form one group behind a common hub class; all other
     plants live in their own sub-namespace *)
  let shared, solo =
    List.partition (fun (p : plant_spec) -> p.shape = Shape.Shared_util)
      cfg.plants
  in
  let plant_results =
    List.mapi
      (fun i (p : plant_spec) ->
         let ctx =
           { Templates.ns = Printf.sprintf "%s.s%d" pkg i; rng = Rng.split rng }
         in
         Templates.plant ctx p.shape ~sink:p.sink ~insecure:p.insecure)
      solo
  in
  let shared_classes, shared_components, shared_planted =
    match shared with
    | [] -> [], [], []
    | first :: _ ->
      let ctx = { Templates.ns = pkg ^ ".sh"; rng = Rng.split rng } in
      (* the whole group shares the first member's sink and security flag *)
      Templates.plant_shared_group ctx ~sink:first.sink ~insecure:first.insecure
        ~count:(List.length shared)
  in
  (* filler web + its root activity *)
  let filler_rng = Rng.split rng in
  let filler_classes =
    Filler.classes ~dispatch_p:cfg.filler_dispatch_p
      ~fanout_max:cfg.filler_fanout_max
      ~jump_locality:cfg.filler_jump_locality filler_rng ~ns:pkg
      ~n_classes:cfg.filler_classes
      ~methods_per_class:cfg.filler_methods_per_class
      ~stmts_per_method:cfg.filler_stmts_per_method
  in
  let filler_act, filler_comp =
    Filler.root_activity filler_rng ~ns:pkg ~n_classes:cfg.filler_classes
      ~methods_per_class:cfg.filler_methods_per_class
  in
  let classes =
    Framework.Stubs.classes ()
    @ (filler_act :: filler_classes)
    @ shared_classes
    @ List.concat_map (fun (r : Templates.result) -> r.classes) plant_results
  in
  let program = Ir.Program.of_classes classes in
  let components =
    (filler_comp :: shared_components)
    @ List.concat_map (fun (r : Templates.result) -> r.components) plant_results
  in
  let manifest = Manifest.App_manifest.make ~package:pkg ~components in
  (* a multidex app splits its classes into classes.dex / classes2.dex
     style partitions *)
  let rec chunk = function
    | [] -> []
    | xs ->
      List.filteri (fun i _ -> i < 50) xs
      :: chunk (List.filteri (fun i _ -> i >= 50) xs)
  in
  let app_names =
    List.filter_map
      (fun (c : Ir.Jclass.t) -> if c.is_system then None else Some c.name)
      classes
  in
  let partitions = if cfg.multidex then Some (chunk app_names) else None in
  let dex =
    if build_dex then dexfile program partitions
    else Dex.Dexfile.empty program
  in
  { name = cfg.name;
    config = cfg;
    program;
    manifest;
    dex;
    partitions;
    planted =
      shared_planted
      @ List.map (fun (r : Templates.result) -> r.planted) plant_results;
    size_stmts = Ir.Program.code_size program }

(** Approximate on-disk size in "MB" for reporting, from our calibration of
    statements per megabyte (see {!Corpus.stmts_per_mb}). *)
let size_mb ~stmts_per_mb app =
  float_of_int app.size_stmts /. float_of_int stmts_per_mb

(* Append one reachable-by-fallthrough-never constant assignment to a
   method body: changes the class's IR (and rendered text) without touching
   any statement index an analysis could have recorded, so planted flows
   and their cold-analysis reports are unaffected. *)
let mutate_method tag (m : Ir.Jmethod.t) =
  match m.Ir.Jmethod.body with
  | None -> m
  | Some body ->
    let l =
      { Ir.Value.id = Printf.sprintf "$mut%d" tag; ty = Ir.Types.Int }
    in
    let extra =
      Ir.Stmt.Assign (l, Ir.Expr.Imm (Ir.Value.Const (Ir.Value.Int_c tag)))
    in
    { m with Ir.Jmethod.body = Some (Array.append body [| extra |]) }

(** [mutate ?seed ?build_dex ~pct app] is the "version update" of [app]: a
    deterministic fraction [pct] (of the filler classes, at least one for
    [pct > 0]) get their method bodies edited, everything else — plants,
    manifest, ground truth — is carried over unchanged, and the program and
    dexfile are rebuilt from scratch.  A cold analysis of the result is
    therefore the oracle an incremental (delta) re-analysis must
    reproduce. *)
let mutate ?(seed = 0) ?(build_dex = true) ~pct app =
  let pkg = package_of_name app.config.name in
  let filler_prefix = pkg ^ ".filler.C" in
  let classes =
    List.rev (Ir.Program.fold_classes app.program (fun c acc -> c :: acc) [])
  in
  let fillers, _ =
    List.partition
      (fun (c : Ir.Jclass.t) ->
         String.starts_with ~prefix:filler_prefix c.Ir.Jclass.name)
      classes
  in
  let n_fillers = List.length fillers in
  let n_mutate =
    if pct <= 0.0 || n_fillers = 0 then 0
    else
      min n_fillers
        (max 1 (int_of_float ((pct *. float_of_int n_fillers) +. 0.5)))
  in
  let rng = Rng.create (app.config.seed + (31 * seed) + 1) in
  let victim = Hashtbl.create (max 4 n_mutate) in
  let filler_names =
    Array.of_list
      (List.sort String.compare
         (List.map (fun (c : Ir.Jclass.t) -> c.Ir.Jclass.name) fillers))
  in
  while Hashtbl.length victim < n_mutate do
    Hashtbl.replace victim filler_names.(Rng.int rng n_fillers) ()
  done;
  let tag = ref 0 in
  let classes' =
    List.map
      (fun (c : Ir.Jclass.t) ->
         if Hashtbl.mem victim c.Ir.Jclass.name then begin
           incr tag;
           { c with
             Ir.Jclass.methods =
               List.map (mutate_method !tag) c.Ir.Jclass.methods }
         end
         else c)
      classes
  in
  let program = Ir.Program.of_classes classes' in
  let dex =
    if build_dex then Dex.Dexfile.of_program program
    else Dex.Dexfile.empty program
  in
  { app with program; dex; partitions = None;
             size_stmts = Ir.Program.code_size program }
