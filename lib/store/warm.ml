type opened =
  | Loaded
  | Patched of Snapshot.delta_report * Backdroid.Resultcache.t option
  | Cold of Codec.error option

let persisted_results path =
  match Snapshot.load_results ~path with
  | Error _ -> None
  | Ok strs ->
    (match Backdroid.Resultcache.of_strings strs with
     | Ok rc -> Some rc
     | Error msg ->
       Backdroid.Log.warn (fun m ->
           m "ignoring malformed result cache in %s: %s" path msg);
       None)

let open_ ~path ~disassemble program =
  let cold e = (Bytesearch.Engine.create (disassemble ()), Cold e) in
  if not (Sys.file_exists path) then cold None
  else
    match Snapshot.delta ~path program with
    | Ok (engine, rep) when Snapshot.unchanged rep -> (engine, Loaded)
    | Ok (engine, rep) -> (engine, Patched (rep, persisted_results path))
    | Error e ->
      Obs.Flight.anomaly ~kind:"store" ~name:"snapshot-refused"
        ~attrs:[ ("path", Obs.Span.Str path);
                 ("error", Obs.Span.Str (Codec.error_to_string e)) ]
        ();
      cold (Some e)

let save ~path ~ruleset_hash engine result =
  let dex = Bytesearch.Engine.dexfile engine in
  let results =
    Backdroid.Resultcache.to_strings (Backdroid.Driver.export_results ~dex result)
  in
  (* the results are exported from the engine saved with them, so their
     footprint hashes are this file's class map *)
  match Snapshot.save ~ruleset_hash ~results ~path engine with
  | bytes -> Ok (bytes, Array.length results)
  | exception Sys_error m -> Error m
  | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
