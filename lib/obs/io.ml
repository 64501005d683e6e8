(** Exception-safe file output, shared by every writer that dumps an
    artifact (resolution traces, Chrome traces, metrics snapshots, bench
    JSON).  An exception mid-write must not leak the fd. *)

let with_file_out path f =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> f oc)

(** Write [content] (plus a trailing newline) to [path]. *)
let write_string path content =
  with_file_out path (fun oc ->
      output_string oc content;
      if content = "" || content.[String.length content - 1] <> '\n' then
        output_char oc '\n')
