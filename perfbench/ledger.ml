(* perfbench: one layer-by-layer ledger of the analysis pipeline.

   ledger.exe --workload W --seed N --seconds S --trace 0|1

   Runs workload W (fig7-cold, fig9-warm, delta-update or serve-hot) with
   inputs drawn from seed N, measures for S seconds, checks every
   operation's outcome, and prints one JSON object as the last line of
   standard output: the end-to-end metrics with --trace 0, the per-layer
   metrics with --trace 1.  README.md explains the workloads and what each
   metric should move. *)

module G = Appgen.Generator
module Corpus = Appgen.Corpus
module Rng = Appgen.Rng

let now = Proc.now_ms

(* ---- running operations ------------------------------------------- *)

(* Fresh-process operations until [seconds] have passed and at least
   [min_ops] ran; operation [i] analyses input [input i].  With tracing,
   half the operations are traced, so the traced run also measures what
   tracing costs. *)
let measure ~seconds ~min_ops ~trace ~input op_of =
  let t0 = now () in
  let rec go i acc =
    if i >= min_ops && now () -. t0 >= seconds *. 1e3 then List.rev acc
    else
      let traced = trace && Op.traced_slot i in
      let op =
        match Proc.in_child (op_of i ~traced) with
        | Ok op -> op
        | Error e -> Op.failed e
      in
      go (i + 1) ({ op with Op.input = input i } :: acc)
  in
  go 0 []

(* Untimed preparation of the first [n] operations: one pass over the
   inputs, so set-up time does not grow with the number of operations. *)
let first_prep_ms n ops =
  Stat.sum (List.filteri (fun i _ -> i < n) (List.map (fun o -> o.Op.prep_ms) ops))

let shuffle ~seed a =
  let a = Array.copy a in
  let rng = Rng.create seed in
  for i = Array.length a - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* Operation [i] of a run that cycles over [inputs], each cycle in its own
   seeded order. *)
let cycle ~seed inputs =
  let n = Array.length inputs in
  let orders = Hashtbl.create 16 in
  fun i ->
    let c = i / n in
    let order =
      match Hashtbl.find_opt orders c with
      | Some o -> o
      | None ->
        let o = shuffle ~seed:((seed * 7919) + c) (Array.init n Fun.id) in
        Hashtbl.add orders c o;
        o
    in
    order.(i mod n)

let setup_or_die what = function
  | Ok v -> v
  | Error e ->
    Printf.eprintf "perfbench: set-up failed (%s): %s\n%!" what e;
    exit 1

(* [once_ms] is the run's one-time set-up, already host-normalised; [pass]
   the number of distinct inputs, whose per-operation preparation also
   counts as set-up. *)
type oneshot = { ops : Op.t list; once_ms : float; pass : int }

(* ---- the modern-144 draws ------------------------------------------- *)

let corpus_stride = 7919

(* A modern-144 corpus: its 143 lognormal-size apps, and (listed last) its
   121-sink outlier. *)
let modern_144 seed =
  let c = Array.of_list (Corpus.modern_144 ~seed ()) in
  let n = Array.length c - 1 in
  (Array.sub c 0 n, c.(n))

(* [n] lognormal-size apps of the modern-144 population: the midpoints of
   [n] size strata of the lognormal apps of [pool] corpora pooled
   (seed + k·corpus_stride), the top stratum represented by the largest
   app, so that peak memory is always the largest app's.  One corpus's
   tail moves with the seed by more than a tenth; the strata of a large
   pool barely move.  Sizes are capped, so a pool holds many apps of the
   largest size, whose peak memory differs by a seventh with their call
   fan-out and dispatch density; ties in size are ordered by those, which
   makes the largest app the heaviest of them. *)
let size_key (c : G.config) =
  (c.G.filler_classes, c.G.filler_fanout_max, c.G.filler_dispatch_p)

let stratified ~seed ~pool ~n =
  let apps =
    Array.concat
      (List.init pool (fun k -> fst (modern_144 (seed + (k * corpus_stride)))))
  in
  Array.stable_sort (fun a b -> compare (size_key a) (size_key b)) apps;
  let len = Array.length apps in
  Array.init n (fun k ->
      if k = n - 1 then apps.(len - 1) else apps.(((2 * k) + 1) * len / (2 * n)))

(* ---- fig7-cold ------------------------------------------------------ *)

(* A corpus's make-up: 143 lognormal-size apps, drawn from twelve pooled
   corpora, and the outlier of corpus [seed]. *)
let fig7_apps = 144
let fig7_pool = 12

let fig7 ~seed ~seconds ~trace =
  let t0 = now () in
  let apps =
    Array.append
      (stratified ~seed ~pool:fig7_pool ~n:(fig7_apps - 1))
      [| snd (modern_144 seed) |]
  in
  let draw_ms = (now () -. t0) *. Op.speed (Proc.calibrate_fresh ()) in
  let pick = cycle ~seed apps in
  let ops =
    measure ~seconds ~min_ops:fig7_apps ~trace ~input:pick (fun i ~traced ->
        Oneshot.cold ~traced apps.(pick i))
  in
  { ops; once_ms = draw_ms; pass = fig7_apps }

(* ---- fig9-warm ------------------------------------------------------ *)

let sweep_apps = 24

(* 20 MB apps built like [Corpus.sink_sweep], one per stratum of the
   1-121 sink-count axis, the count within each stratum drawn from the
   seed. *)
let sweep ~seed =
  let rng = Rng.create seed in
  Array.init sweep_apps (fun k ->
      let u = Rng.float rng in
      let n = 1 + int_of_float ((float_of_int k +. u) *. 121.0 /. float_of_int sweep_apps) in
      let plants = List.init n (fun _ -> Corpus.random_plant rng ~insecure_p:0.02) in
      { G.default_config with
        G.seed = 5000 + n;
        name = Printf.sprintf "com.sweep.sinks%03d" n;
        filler_classes =
          Corpus.filler_classes_for_mb ~mb:20.0 ~methods_per_class:6
            ~stmts_per_method:8;
        filler_methods_per_class = 6;
        filler_stmts_per_method = 8;
        plants })

(* Each snapshot is written by a fresh one-shot process; returns the
   snapshots with their cold per-sink lines, and the set-up time. *)
let write_snapshots ~dir ~tag apps =
  let written =
    Array.mapi
      (fun k (cfg : G.config) ->
         let path = Filename.concat dir (Printf.sprintf "%s-%d.bdix" tag k) in
         let lines, ms =
           setup_or_die ("snapshot of " ^ cfg.G.name)
             (Proc.in_child (Oneshot.write_snapshot ~path cfg))
         in
         ((path, lines), ms))
      apps
  in
  (Array.map fst written, Stat.sum (Array.to_list (Array.map snd written)))

let fig9 ~dir ~seed ~seconds ~trace =
  let apps = sweep ~seed in
  let snaps, write_ms = write_snapshots ~dir ~tag:"fig9" apps in
  let pick = cycle ~seed apps in
  let ops =
    measure ~seconds ~min_ops:100 ~trace ~input:pick (fun i ~traced ->
        let k = pick i in
        let path, reference = snaps.(k) in
        Oneshot.warm ~traced ~path ~reference apps.(k))
  in
  { ops; once_ms = write_ms; pass = sweep_apps }

(* ---- delta-update --------------------------------------------------- *)

let delta_apps = 96
let delta_pool = 6

let delta ~dir ~seed ~seconds ~trace =
  let apps = stratified ~seed ~pool:delta_pool ~n:delta_apps in
  let snaps, write_ms = write_snapshots ~dir ~tag:"v1" apps in
  let pick = cycle ~seed apps in
  let out = Filename.concat dir "v2.bdix" in
  let ops =
    measure ~seconds ~min_ops:100 ~trace ~input:pick (fun i ~traced ->
        let k = pick i in
        Oneshot.delta ~traced ~path:(fst snaps.(k)) ~out
          ~mutation_seed:((seed * 100_003) + i) apps.(k))
  in
  { ops; once_ms = write_ms; pass = delta_apps }

(* ---- metrics -------------------------------------------------------- *)

let reading name (o : Op.t) = Option.value ~default:0.0 (List.assoc_opt name o.Op.layers)

(* [lat] holds each operation's latency with its weight. *)
let end_to_end ~lat ~apps_per_s ~rss_kb ~setup_ms =
  [ ("apps_per_s", "1/s", apps_per_s);
    ("app_p50_ms", "ms", Stat.weighted_percentile 50.0 lat);
    ("app_p90_ms", "ms", Stat.weighted_percentile 90.0 lat);
    ("peak_rss_mb", "MB", float_of_int rss_kb /. 1024.0);
    ("setup_s", "s", setup_ms /. 1e3) ]

(* The timers that partition a one-shot operation's timed section. *)
let section_timers =
  [ "dex.disasm_ms"; "search.create_ms"; "core.analyze_ms"; "serve.render_ms";
    "store.load_ms"; "store.delta_ms"; "core.export_ms"; "store.save_ms" ]

(* [cost o] is what an operation costs the loop: the timed section of a
   one-shot operation, the whole request cycle of a served one. *)
let per_layer ~ops ~cal_ms ~cost ~unattributed ~extra =
  let traced = List.filter (fun o -> o.Op.traced) ops in
  let untraced = List.filter (fun o -> not o.Op.traced) ops in
  let med name = Stat.median (List.map (reading name) traced) in
  let total name = Stat.sum (List.map (reading name) traced) in
  let ratio num den = if total den = 0.0 then 0.0 else total num /. total den in
  let slope name =
    Stat.slope (List.map (fun o -> (float_of_int o.Op.sinks, reading name o)) traced)
  in
  let mean_cost os = Stat.sum (List.map cost os) /. float_of_int (max 1 (List.length os)) in
  (* traced against untraced cost of the same input, where inputs repeat;
     comparing two halves of a mixed population would mostly measure the
     mix *)
  let overhead =
    let paired =
      List.filter_map
        (fun k ->
           let on = List.filter (fun o -> o.Op.input = k) traced
           and off = List.filter (fun o -> o.Op.input = k) untraced in
           if on = [] || off = [] then None
           else Some ((mean_cost on /. mean_cost off) -. 1.0))
        (List.sort_uniq compare (List.map (fun o -> o.Op.input) traced))
    in
    if paired <> [] then 100.0 *. Stat.median paired
    else if untraced = [] || traced = [] then 0.0
    else 100.0 *. (mean_cost traced -. mean_cost untraced) /. mean_cost untraced
  in
  let self =
    Stat.median
      (List.map (fun o -> reading "core.analyze_ms" o -. reading "search.miss_ms" o) traced)
  in
  let metric name unit measured =
    (name, unit, Option.value (List.assoc_opt name extra) ~default:measured)
  in
  [ metric "dex.disasm_ms" "ms" (med "dex.disasm_ms");
    metric "dex.lines" "count" (med "dex.lines");
    metric "search.index_build_ms" "ms" (med "search.index_build_ms");
    metric "search.miss_ms" "ms" (med "search.miss_ms");
    metric "search.queries" "count" (med "search.queries");
    metric "search.hit_ratio" "ratio" (ratio "search.cached" "search.queries");
    metric "search.postings_bytes" "bytes" (med "search.postings_bytes");
    metric "store.load_ms" "ms" (med "store.load_ms");
    metric "store.delta_ms" "ms" (med "store.delta_ms");
    metric "store.save_ms" "ms" (med "store.save_ms");
    metric "store.snapshot_bytes" "bytes" (med "store.snapshot_bytes");
    metric "store.lines_reused" "count" (med "store.lines_reused");
    metric "store.lines_rendered" "count" (med "store.lines_rendered");
    metric "store.remapped_loads" "count" (total "store.remapped_loads");
    metric "core.analyze_ms" "ms" (med "core.analyze_ms");
    metric "core.self_ms" "ms" self;
    metric "core.sink_calls" "count" (med "core.sink_calls");
    metric "core.resolutions" "count" (med "core.resolutions");
    metric "core.work_spent" "count" (med "core.work_spent");
    metric "core.ssg_nodes" "count" (med "core.ssg_nodes");
    metric "core.replay_ratio" "ratio" (ratio "core.replayed_sinks" "core.sink_calls");
    metric "core.partial_sinks" "count" (total "core.partial_sinks");
    metric "core.ms_per_sink" "ms/sink" (slope "core.analyze_ms");
    metric "store.load_ms_per_sink" "ms/sink" (slope "store.load_ms");
    metric "serve.render_ms" "ms" (med "serve.render_ms");
    metric "serve.server_ms" "ms" (med "serve.server_ms");
    metric "serve.wire_ms" "ms" (med "serve.wire_ms");
    metric "serve.cache_hit_ratio" "ratio" 0.0;
    metric "serve.rejected" "count" 0.0;
    metric "appgen.generate_ms" "ms" (med "appgen.generate_ms");
    metric "obs.trace_overhead_pct" "%" overhead;
    metric "host.calibration_ms" "ms" cal_ms;
    metric "obs.unattributed_pct" "%"
      (let c = Stat.sum (List.map cost traced) in
       if c = 0.0 then 0.0 else 100.0 *. Stat.sum (List.map unattributed traced) /. c) ]

(* A one-shot run stops part-way through a cycle over its inputs; so that
   where the cut falls does not move the figures, each input weighs the
   same, its operations sharing its weight. *)
let input_weighted ops =
  let runs = Hashtbl.create 64 in
  List.iter
    (fun o ->
       Hashtbl.replace runs o.Op.input
         (1 + Option.value ~default:0 (Hashtbl.find_opt runs o.Op.input)))
    ops;
  List.map
    (fun o -> (o.Op.wall_ms, 1.0 /. float_of_int (Hashtbl.find runs o.Op.input)))
    ops

let oneshot_metrics ~trace (r : oneshot) =
  let ops = Op.normalize_run r.ops in
  let ok = List.filter (fun o -> o.Op.failure = None) ops in
  let cal_ms =
    Stat.median
      (List.filter_map
         (fun o -> if o.Op.failure = None then Some o.Op.cal_ms else None)
         r.ops)
  in
  if not trace then
    let lat = input_weighted ok in
    end_to_end ~lat
      ~apps_per_s:
        (Stat.sum (List.map snd lat)
         /. (Stat.sum (List.map (fun (ms, w) -> ms *. w) lat) /. 1e3))
      ~rss_kb:(List.fold_left (fun m o -> max m o.Op.rss_kb) 0 ok)
      ~setup_ms:(r.once_ms +. first_prep_ms r.pass ops)
  else
    per_layer ~ops:ok ~cal_ms ~extra:[]
      ~cost:(fun o -> o.Op.wall_ms)
      ~unattributed:(fun o ->
          o.Op.wall_ms -. Stat.sum (List.map (fun n -> reading n o) section_timers))

let serve_metrics ~trace (r : Servehot.run) =
  let ops = List.map (Op.normalize ~nominal:Op.nominal_parallel_cal_ms) r.Servehot.ops in
  let ok = List.filter (fun o -> o.Op.failure = None) ops in
  if not trace then
    end_to_end
      ~lat:(List.map (fun o -> (o.Op.wall_ms, 1.0)) ok)
      ~apps_per_s:r.Servehot.apps_per_s
      ~rss_kb:r.Servehot.daemon_rss_kb ~setup_ms:r.Servehot.setup_ms
  else
    let refs = Array.to_list r.Servehot.refs in
    let ref_med f = Stat.median (List.map f refs) in
    (* the window's hit ratio, from each engine's running totals at its
       first and last traced reply *)
    let window k =
      let seen =
        List.filter (fun o -> o.Op.traced && reading "spec" o = float_of_int k) ok
        |> List.map (fun o -> (reading "search.total_cum" o, reading "search.cached_cum" o))
        |> List.sort compare
      in
      match seen with
      | [] -> (0.0, 0.0)
      | (q0, c0) :: _ ->
        let q1, c1 = List.nth seen (List.length seen - 1) in
        (q1 -. q0, c1 -. c0)
    in
    let deltas = List.init (List.length refs) window in
    let queries = Stat.sum (List.map fst deltas) in
    let hit_ratio = if queries = 0.0 then 0.0 else Stat.sum (List.map snd deltas) /. queries in
    per_layer ~ops:ok ~cal_ms:r.Servehot.cal_ms
      ~cost:(reading "serve.cycle_ms")
      ~unattributed:(fun o ->
          reading "serve.cycle_ms" o -. reading "serve.server_ms" o
          -. reading "serve.wire_ms" o)
      ~extra:
        [ ("serve.cache_hit_ratio", r.Servehot.hit_ratio);
          ("serve.rejected", float_of_int r.Servehot.rejected);
          ("appgen.generate_ms", ref_med (fun x -> x.Servehot.generate_ms));
          ("search.queries", ref_med (fun x -> float_of_int x.Servehot.searches));
          ("search.hit_ratio", hit_ratio);
          ("core.resolutions", ref_med (fun x -> float_of_int x.Servehot.resolutions));
          ("core.work_spent", ref_med (fun x -> float_of_int x.Servehot.work_spent)) ]

(* ---- output --------------------------------------------------------- *)

let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let print_result ~ops metrics =
  let failed = List.length (List.filter (fun o -> o.Op.failure <> None) ops) in
  let attempted = List.length ops in
  let whys = List.sort_uniq compare (List.filter_map (fun o -> o.Op.failure) ops) in
  List.iter
    (fun why ->
       let n = List.length (List.filter (fun o -> o.Op.failure = Some why) ops) in
       Printf.eprintf "perfbench: %d failed operation(s): %s\n" n why)
    whys;
  let fields =
    List.map
      (fun (name, unit, v) ->
         Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name
           (json_number v) unit)
      metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (failed = 0 && attempted > 0) attempted failed (String.concat ", " fields)

(* ---- main ----------------------------------------------------------- *)

let workloads = [ "fig7-cold"; "fig9-warm"; "delta-update"; "serve-hot" ]

(* The corpora's own seeds: modern-144, sink sweep, modern-144, and the
   serve bench's hot app. *)
let default_seed = function
  | "fig7-cold" | "delta-update" -> 42
  | "fig9-warm" -> 13
  | _ -> 41

let () =
  let workload = ref "" and seed = ref None and seconds = ref 15.0
  and trace = ref 0 in
  let usage =
    "ledger.exe --workload {" ^ String.concat "|" workloads
    ^ "} [--seed N] [--seconds S] [--trace 0|1]"
  in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "W workload to run");
      ("--seed", Arg.Int (fun n -> seed := Some n), "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measuring time");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer metrics") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if not (List.mem !workload workloads) || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline usage;
    exit 2
  end;
  let seed = Option.value !seed ~default:(default_seed !workload) in
  let seconds = !seconds and trace = !trace = 1 in
  let dir = Proc.work_dir () in
  let parent = Unix.getpid () in
  at_exit (fun () ->
      if Unix.getpid () = parent then begin
        Proc.kill_live ();
        Proc.remove_dir dir
      end);
  Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> exit 2));
  Sys.set_signal Sys.sigint (Sys.Signal_handle (fun _ -> exit 2));
  match !workload with
  | "serve-hot" ->
    let r = Servehot.run ~dir ~seed ~seconds ~trace in
    print_result ~ops:r.Servehot.ops (serve_metrics ~trace r)
  | w ->
    let r =
      match w with
      | "fig7-cold" -> fig7 ~seed ~seconds ~trace
      | "fig9-warm" -> fig9 ~dir ~seed ~seconds ~trace
      | _ -> delta ~dir ~seed ~seconds ~trace
    in
    print_result ~ops:r.ops (oneshot_metrics ~trace r)
