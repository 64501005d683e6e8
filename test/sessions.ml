(* Runs of one analysis session, one after another or from several domains
   at once: the concurrency an analysis has.  An analysis runs its sink
   groups in order on its calling domain, and a daemon at [--jobs N] runs
   up to N requests for one resident app on one session at the same time.
   The determinism tests compare those concurrent runs with runs alone;
   [jobs] there counts the domains running the session at once, as the
   daemon's [--jobs] does. *)

module Driver = Backdroid.Driver
module G = Appgen.Generator

(* [domains] domains released together, each running [f ()]; the results
   in domain order. *)
let race ~domains f =
  let go = Atomic.make false in
  let ds =
    List.init domains (fun _ ->
        Domain.spawn (fun () ->
            while not (Atomic.get go) do Domain.cpu_relax () done;
            f ()))
  in
  Atomic.set go true;
  List.map Domain.join ds

type runs = {
  session : Driver.session;
  results : Driver.result list;  (** in run (or domain) order *)
}

let open_ ?cfg (app : G.app) =
  Driver.open_session ?cfg ~dex:app.G.dex ~manifest:app.G.manifest ()

(* [runs] runs of one fresh session, one after another. *)
let sequential ?cfg ~runs app =
  let session = open_ ?cfg app in
  { session; results = List.init runs (fun _ -> Driver.run_session session) }

(* One run of a fresh session from each of [jobs] domains, all at once. *)
let concurrent ?cfg ~jobs app =
  let session = open_ ?cfg app in
  { session;
    results = race ~domains:jobs (fun () -> Driver.run_session session) }

let engine r = Driver.session_engine r.session
