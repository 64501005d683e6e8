(* Process plumbing: every measured analysis runs in a process of its own,
   forked from a parent that never interns an app symbol, so the child's
   symbol table holds exactly what a one-shot CLI run of that app holds. *)

let now_ms () = Unix.gettimeofday () *. 1e3

(* A fixed slice of allocation-heavy OCaml work, timed: the host's speed at
   this moment, as this process sees it. *)
let calibrate () =
  let t0 = now_ms () in
  let h = Hashtbl.create 16 in
  for i = 0 to 4_000 do
    Hashtbl.replace h ((i * 7919) land 0xffff) (string_of_int i)
  done;
  let l = List.init 4_000 (fun i -> (i * 7919) mod 10007) in
  ignore (Sys.opaque_identity (List.sort compare l));
  now_ms () -. t0

(* Keep stdout for the final result line: children write nothing there. *)
let quiet_stdout () =
  flush_all ();
  Unix.dup2 Unix.stderr Unix.stdout

let rec waitpid_retry pid =
  try snd (Unix.waitpid [] pid)
  with Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_retry pid

(* Children not yet reaped.  If the run is cut short, {!kill_live} stops
   them, so no process outlives the run. *)
let live = ref []

let track pid = live := pid :: !live
let untrack pid = live := List.filter (( <> ) pid) !live

let kill_live () =
  List.iter
    (fun pid ->
       (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
       try ignore (waitpid_retry pid) with Unix.Unix_error _ -> ())
    !live;
  live := []

(* [spawn f] runs [f] in a forked child; [collect] returns its marshalled
   value.  The parent must not have spawned a domain: OCaml refuses [fork]
   after that.  A child that dies without a reply is reported as [Error]. *)
type 'a child = { pid : int; reply : Unix.file_descr }

let spawn (f : unit -> 'a) : 'a child =
  flush_all ();
  let rd, wr = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
    Unix.close rd;
    quiet_stdout ();
    let reply =
      try Ok (f ()) with e -> Error ("exception: " ^ Printexc.to_string e)
    in
    let oc = Unix.out_channel_of_descr wr in
    Marshal.to_channel oc reply [];
    close_out oc;
    Unix._exit 0
  | pid ->
    Unix.close wr;
    track pid;
    { pid; reply = rd }

let collect (c : 'a child) : ('a, string) result =
  let ic = Unix.in_channel_of_descr c.reply in
  let reply =
    try (Marshal.from_channel ic : ('a, string) result)
    with End_of_file | Failure _ -> Error "child died without a reply"
  in
  close_in ic;
  let status = waitpid_retry c.pid in
  untrack c.pid;
  match status, reply with
  | Unix.WEXITED 0, r -> r
  | _, Ok _ -> Error "child exited abnormally"
  | _, (Error _ as e) -> e

let in_child f = collect (spawn f)

(* {!calibrate} in a fresh child, the state every measured operation starts
   from: a long-lived process's own heap would colour the result. *)
let calibrate_fresh () =
  match in_child calibrate with Ok ms -> ms | Error _ -> calibrate ()

(* Two domains running {!calibrate} side by side in a fresh child: both
   cores at once, and the runtime's cross-domain synchronisation, as a
   served request's worker domains see them. *)
let calibrate_parallel () =
  match
    in_child (fun () ->
        let t0 = now_ms () in
        let d = Domain.spawn calibrate in
        ignore (calibrate ());
        ignore (Domain.join d);
        now_ms () -. t0)
  with
  | Ok ms -> ms
  | Error _ -> 0.0

(* Peak resident set of a process, from the kernel's high-water mark. *)
let vmhwm_kb pid =
  match open_in (Printf.sprintf "/proc/%s/status" pid) with
  | exception Sys_error _ -> 0
  | ic ->
    let rec scan () =
      match input_line ic with
      | l when String.starts_with ~prefix:"VmHWM:" l ->
        (try Scanf.sscanf l "VmHWM: %d kB" Fun.id
         with Scanf.Scan_failure _ | Failure _ | End_of_file -> 0)
      | _ -> scan ()
      | exception End_of_file -> 0
    in
    let kb = scan () in
    close_in ic;
    kb

(* Scratch space for snapshots and the daemon socket, inside the checkout
   (relative, which also keeps the socket path short). *)
let work_dir () =
  let root = ".perfbench_work" in
  let dir = Filename.concat root (string_of_int (Unix.getpid ())) in
  List.iter
    (fun d -> try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ())
    [ root; dir ];
  dir

let remove_dir dir =
  (try Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir)
   with Sys_error _ -> ());
  (try Unix.rmdir dir with Unix.Unix_error _ -> ());
  (* the shared root goes too once no other run uses it *)
  try Unix.rmdir (Filename.dirname dir) with Unix.Unix_error _ -> ()
