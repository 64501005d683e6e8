(* One measured operation — an app analysed, or one served request — as the
   process that ran it reports it. *)

type t = {
  wall_ms : float;  (** the timed section *)
  prep_ms : float;  (** untimed preparation in the same process *)
  cal_ms : float;
      (** {!Proc.calibrate} in the operation's own process before its
          timed section; for a served request, its slice's
          {!Proc.calibrate_parallel} *)
  rss_kb : int;     (** the process's peak RSS at the end of the timed section *)
  sinks : int;      (** planted sink calls of the app *)
  input : int;      (** which of the run's inputs the operation analysed *)
  failure : string option;  (** [None] when every check passed *)
  traced : bool;
  layers : (string * float) list;
      (** raw per-layer readings of a traced operation: call timers
          ([*_ms]) and counters, summed per name *)
}

let failed why =
  { wall_ms = 0.0; prep_ms = 0.0; cal_ms = 0.0; rss_kb = 0; sinks = 0; input = -1;
    failure = Some why; traced = false; layers = [] }

(* Host-speed normalisation.  A shared host drifts: the same run can take
   a third longer a few minutes later, with CPU time tracking wall time.  Every operation therefore also times {!Proc.calibrate} in its own
   process, and its times are reported scaled to the calibration kernel's
   time on a quiet core of the reference host, [nominal_cal_ms]. *)
let nominal_cal_ms = 2.5

let speed ?(nominal = nominal_cal_ms) cal_ms =
  if cal_ms > 0.0 then nominal /. cal_ms else 1.0

let normalize ?nominal o =
  let f = speed ?nominal o.cal_ms in
  { o with
    wall_ms = o.wall_ms *. f;
    prep_ms = o.prep_ms *. f;
    layers =
      List.map
        (fun (k, v) -> if String.ends_with ~suffix:"_ms" k then (k, v *. f) else (k, v))
        o.layers }

(* One 2.5 ms calibration reads the host's speed with a scatter of a
   third, most of it noise rather than drift.  A one-shot run therefore
   scales each operation by the median calibration of the operations
   around it, about half a second of the run on either side. *)
let calibration_window = 5

let normalize_run ops =
  let cals = Array.of_list (List.map (fun o -> o.cal_ms) ops) in
  let n = Array.length cals in
  List.mapi
    (fun i o ->
       let near =
         List.filter
           (fun c -> c > 0.0)
           (List.init ((2 * calibration_window) + 1) (fun d ->
                let j = i - calibration_window + d in
                if j >= 0 && j < n then cals.(j) else 0.0))
       in
       if near = [] then o else normalize { o with cal_ms = Stat.median near })
    ops

(* The same for {!Proc.calibrate_parallel}, which the served workload's
   two worker domains follow more closely. *)
let nominal_parallel_cal_ms = 3.5

(* Which operations of a traced run are traced: two on, two off.  Forked
   children tend to alternate between the two cores of a small host, and
   cores differ in speed, so plain alternation would measure the cores
   rather than the tracing. *)
let traced_slot i = i / 2 mod 2 = 0

(* Timers around the public calls of each layer.  An untraced clock runs
   the calls bare. *)
type clock = { on : bool; mutable marks : (string * float) list }

let clock on = { on; marks = [] }

let note c name v =
  if c.on then
    c.marks <-
      (match List.assoc_opt name c.marks with
       | Some v0 -> (name, v0 +. v) :: List.remove_assoc name c.marks
       | None -> (name, v) :: c.marks)

let timed c name f =
  if not c.on then f ()
  else begin
    let t0 = Proc.now_ms () in
    let r = f () in
    note c name (Proc.now_ms () -. t0);
    r
  end
