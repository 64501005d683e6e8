(* serve-hot: [backdroidd] in a process of its own at --jobs 2, driven by a
   closed loop of analyze requests over two connections — two vetting
   workers that each wait for a verdict before sending the next app.  The
   load generators are processes of their own too, so no client shares the
   daemon's OCaml runtime.  Every timed request is a cache hit. *)

module S = Serve.Server
module C = Serve.Client
module P = Serve.Protocol
module A = Serve.Appspec
module D = Backdroid.Driver

let jobs = 2
let connections = 2
let n_specs = 4
let plants_per_spec = 120
let now = Proc.now_ms

(* A few sink-heavy specs of one shape: [plants_per_spec] insecure callback
   flows each, sinks drawn from the corpora's primary mix, so every request
   costs about the same.  The workload seed picks the sinks and the
   generator seeds. *)
let specs ~seed =
  let rng = Appgen.Rng.create seed in
  let sink_name (s : Framework.Sinks.t) =
    fst (List.find (fun (_, s') -> s' == s) A.sink_names)
  in
  Array.init n_specs (fun _ ->
      let plants =
        List.init plants_per_spec (fun _ ->
            ( Appgen.Shape.to_string Appgen.Shape.Callback,
              sink_name (Appgen.Corpus.weighted_choice rng Appgen.Corpus.primary_sink_mix) ))
      in
      { A.seed = 1 + Appgen.Rng.int rng 1_000_000; size_mb = 10.0; plants;
        insecure = true; mutate_pct = 0.0 })

type reference = {
  lines : string list;  (** per-sink lines of a cold one-shot analysis *)
  verdict : string option;
      (** the cold analysis against the planted ground truth; a served
          reply with the same lines shares it *)
  generate_ms : float;
  searches : int;
  resolutions : int;
  work_spent : int;
  setup_ms : float;  (** this process's host-normalised time *)
}

(* The cold oracle for one spec, computed in a fresh process. *)
let reference spec () =
  let cal_ms = Proc.calibrate () in
  let t_ref = now () in
  let cfg =
    match A.resolve spec with Ok cfg -> cfg | Error e -> failwith e
  in
  let t0 = now () in
  let app = Appgen.Generator.generate ~build_dex:false cfg in
  let generate_ms = now () -. t0 in
  let dex = Dex.Dexfile.of_program app.Appgen.Generator.program in
  let r = D.analyze ~dex ~manifest:app.Appgen.Generator.manifest () in
  { lines = Serve.Render.report_lines r; generate_ms;
    verdict = Oneshot.check app r;
    searches = r.D.stats.D.searches_total; resolutions = r.D.stats.D.resolutions;
    work_spent = r.D.stats.D.work_spent;
    setup_ms = (now () -. t_ref) *. Op.speed cal_ms }

let start_daemon ~socket =
  flush_all ();
  match Unix.fork () with
  | 0 ->
    Proc.quiet_stdout ();
    let cfg =
      { S.default_config with S.socket; jobs; max_resident = n_specs + 2 }
    in
    (match S.run cfg with
     | Ok () -> Unix._exit 0
     | Error e ->
       prerr_endline ("perfbench daemon: " ^ e);
       Unix._exit 1)
  | pid ->
    Proc.track pid;
    pid

let stop_daemon ~socket pid =
  ignore (C.with_conn ~socket (fun c -> C.call c P.Shutdown));
  let deadline = now () +. 10_000.0 in
  let rec reap () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when now () < deadline ->
      Unix.sleepf 0.02;
      reap ()
    | 0, _ ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Proc.waitpid_retry pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap ()
  in
  reap ();
  Proc.untrack pid

(* Connect while the daemon may still be binding its socket; retry often,
   so the wait does not round set-up time up to the retry period. *)
let connect ~socket =
  match C.connect_retry ~attempts:5000 ~delay_s:0.002 ~socket () with
  | Ok c -> c
  | Error e -> failwith ("connect: " ^ e)

let analyze spec = P.Analyze { spec; snapshot = None; time_limit_ms = None }

let stats ~socket =
  match C.with_conn ~socket (fun c -> C.call c P.Stats) with
  | Ok (P.Stats_json j) ->
    fun field -> Option.value ~default:0 (Obs.Jsonf.field_int j field)
  | Ok _ -> failwith "stats: unexpected response"
  | Error e -> failwith ("stats: " ^ e)

(* Header, per-sink lines, stats line. *)
let split_transcript text =
  match List.filter (( <> ) "") (String.split_on_char '\n' text) with
  | header :: rest when rest <> [] ->
    let rev = List.rev rest in
    Some (header, List.rev (List.tl rev), List.hd rev)
  | _ -> None

(* What the served transcript tells of the core and search layers.  Its
   search counts are the resident engine's running totals. *)
let note_transcript c ~header ~stats =
  (try
     Scanf.sscanf header "analyzed %s in %fs: %d sink calls" (fun _ _ n ->
         Op.note c "core.sink_calls" (float_of_int n))
   with Scanf.Scan_failure _ | Failure _ | End_of_file -> ());
  try
    Scanf.sscanf stats
      "stats: %d searches (%f%% cached), %d SSG nodes, %d SSG edges, %d \
       loops, %d partial sinks, %d replayed sinks"
      (fun searches cached nodes _ _ partial replayed ->
         Op.note c "search.total_cum" (float_of_int searches);
         Op.note c "search.cached_cum" (float_of_int searches *. cached /. 100.0);
         Op.note c "core.ssg_nodes" (float_of_int nodes);
         Op.note c "core.partial_sinks" (float_of_int partial);
         Op.note c "core.replayed_sinks" (float_of_int replayed))
  with Scanf.Scan_failure _ | Failure _ | End_of_file -> ()

(* The timed window is cut into slices of [slice_ms], each followed by a
   lull of [pause_ms] in which no request is sent and the parent times
   {!Proc.calibrate} on the idle host.  Each slice's requests are scaled by
   the calibrations on either side, which follows the host's drift second
   by second; calibrating under load would measure the contention for the
   two cores instead. *)
let slice_ms = 1000.0
let pause_ms = 80.0
let slice_start ~start k = start +. (float_of_int k *. (slice_ms +. pause_ms))

type sample = { slice : int; t_end : float; op : Op.t }

(* One load generator: requests cycle over the specs from [offset], sent
   only inside the slices. *)
let client ~socket ~specs ~refs ~offset ~start ~slices ~trace () =
  let conn = connect ~socket in
  let n = Array.length specs in
  let request i slice =
    let k = (i + offset) mod n in
    let c = Op.clock (trace && Op.traced_slot i) in
    let t0 = now () in
    let reply = C.call conn (analyze specs.(k)) in
    let rtt = now () -. t0 in
    let failure =
      match reply with
      | Ok (P.Analyzed { text; wall_us; _ }) ->
        Op.note c "serve.server_ms" (wall_us /. 1e3);
        Op.note c "core.analyze_ms" (wall_us /. 1e3);
        Op.note c "serve.wire_ms" (rtt -. (wall_us /. 1e3));
        (match split_transcript text with
         | Some (header, lines, stats) ->
           if c.Op.on then begin
             Op.note c "spec" (float_of_int k);
             note_transcript c ~header ~stats
           end;
           if lines <> refs.(k).lines then
             Some "per-sink lines differ from a cold analysis"
           else refs.(k).verdict
         | None -> Some "malformed transcript")
      | Ok (P.Rejected why) -> Some ("rejected: " ^ P.reject_to_string why)
      | Ok (P.Error e) -> Some ("error: " ^ e)
      | Ok _ -> Some "unexpected response"
      | Error e -> Some ("call: " ^ e)
    in
    let t_end = now () in
    { slice; t_end;
      op =
        { Op.wall_ms = rtt; prep_ms = 0.0; cal_ms = 0.0; rss_kb = 0;
          sinks = List.length specs.(k).A.plants; input = k; failure; traced = c.Op.on;
          layers = ("serve.cycle_ms", t_end -. t0) :: c.Op.marks } }
  in
  let rec loop i slice acc =
    if slice >= slices then acc
    else
      let s0 = slice_start ~start slice and t = now () in
      if t < s0 then begin
        Unix.sleepf ((s0 -. t) /. 1e3);
        loop i slice acc
      end
      else if t >= s0 +. slice_ms then loop i (slice + 1) acc
      else loop (i + 1) slice (request i slice :: acc)
  in
  let samples = List.rev (loop 0 0 []) in
  C.close conn;
  samples

type run = {
  ops : Op.t list;  (** each carrying its slice's calibration *)
  setup_ms : float;
  apps_per_s : float;  (** median over slices of the host-normalised rate *)
  cal_ms : float;  (** median calibration over the window *)
  daemon_rss_kb : int;
  hit_ratio : float;
  rejected : int;
  refs : reference array;
}

let warm_up ~socket specs =
  let conn = connect ~socket in
  for _ = 1 to 3 do
    Array.iter
      (fun spec ->
         match C.call conn (analyze spec) with
         | Ok (P.Analyzed _) -> ()
         | Ok _ | Error _ -> failwith "warm-up request failed")
      specs
  done;
  C.close conn

let host_speed () =
  Op.speed (Stat.median (List.init 5 (fun _ -> Proc.calibrate_fresh ())))

(* Start the daemon and warm it up, untimed: the first request per spec
   builds its engine; two more rounds settle the query caches.  Returns
   the daemon and the host-normalised time this took. *)
let start_warm ~socket specs =
  let f = host_speed () in
  let t0 = now () in
  let pid = start_daemon ~socket in
  (try warm_up ~socket specs
   with e -> stop_daemon ~socket pid; raise e);
  (pid, (now () -. t0) *. f)

let run ~dir ~seed ~seconds ~trace =
  let specs = specs ~seed in
  let refs =
    Array.map
      (fun spec ->
         match Proc.in_child (reference spec) with
         | Ok r -> r
         | Error e -> failwith e)
      specs
  in
  let socket = Filename.concat dir "d.sock" in
  (* set up three times, report the median; the last daemon serves *)
  let starts =
    List.init 2 (fun _ ->
        let pid, ms = start_warm ~socket specs in
        stop_daemon ~socket pid;
        ms)
  in
  let pid, ms = start_warm ~socket specs in
  let setup_ms =
    Stat.sum (Array.to_list (Array.map (fun (r : reference) -> r.setup_ms) refs))
    +. Stat.median (ms :: starts)
  in
  Fun.protect ~finally:(fun () -> stop_daemon ~socket pid) @@ fun () ->
  let before = stats ~socket in
  let slices = max 1 (int_of_float (Float.round (seconds *. 1e3 /. slice_ms))) in
  let start = now () +. 200.0 in
  let loaders =
    List.init connections (fun offset ->
        Proc.spawn (client ~socket ~specs ~refs ~offset ~start ~slices ~trace))
  in
  (* one calibration in each lull: before slice 0, between slices, after
     the last *)
  let cals =
    Array.init (slices + 1) (fun k ->
        let quiet = slice_start ~start k -. pause_ms +. 30.0 in
        let t = now () in
        if quiet > t then Unix.sleepf ((quiet -. t) /. 1e3);
        Stat.median (List.init 3 (fun _ -> Proc.calibrate_parallel ())))
  in
  let samples =
    List.concat_map
      (fun l ->
         match Proc.collect l with
         | Ok s -> s
         | Error e -> [ { slice = 0; t_end = start; op = Op.failed e } ])
      loaders
  in
  let after = stats ~socket in
  let slice_cal k = (cals.(k) +. cals.(k + 1)) /. 2.0 in
  let nominal = Op.nominal_parallel_cal_ms in
  (* requests completed per busy second of each slice, host-normalised;
     the median over slices shrugs off a slice the calibrations missed *)
  let rate k =
    let mine = List.filter (fun x -> x.slice = k && x.op.Op.failure = None) samples in
    let busy =
      List.fold_left (fun b x -> Float.max b x.t_end) (slice_start ~start k) mine
      -. slice_start ~start k
    in
    if busy <= 0.0 then 0.0
    else
      float_of_int (List.length mine)
      /. (busy *. Op.speed ~nominal (slice_cal k) /. 1e3)
  in
  let d field = after field - before field in
  let hits = d "cache_hits" and misses = d "cache_misses" in
  { ops = List.map (fun x -> { x.op with Op.cal_ms = slice_cal x.slice }) samples;
    setup_ms;
    apps_per_s = Stat.median (List.init slices rate);
    cal_ms = Stat.median (Array.to_list cals);
    daemon_rss_kb = Proc.vmhwm_kb (string_of_int pid);
    hit_ratio =
      (if hits + misses = 0 then 0.0
       else float_of_int hits /. float_of_int (hits + misses));
    rejected = d "rejected"; refs }
