(* The wire-level description of a synthetic app.  The daemon and the
   one-shot CLI build their apps from the same spec through the same
   [generate], so a served report and a one-shot report describe the
   identical program by construction. *)

module G = Appgen.Generator
module Shape = Appgen.Shape
module Sinks = Framework.Sinks

type t = {
  seed : int;
  size_mb : float;
  plants : (string * string) list;
  insecure : bool;
  mutate_pct : float;
}

let default =
  { seed = 1; size_mb = 10.0; plants = []; insecure = false; mutate_pct = 0.0 }

let sink_names =
  [ "cipher", Sinks.cipher; "ssl", Sinks.ssl_factory; "https", Sinks.https_conn;
    "sms", Sinks.sms; "server-socket", Sinks.server_socket;
    "local-socket", Sinks.local_socket; "webview-js", Sinks.webview_js;
    "webview-bridge", Sinks.webview_bridge; "sql", Sinks.sql_query;
    "intent-redirect", Sinks.intent_redirect ]

let app_name t = Printf.sprintf "com.cli.app%d" t.seed

let fingerprint t =
  Printf.sprintf "s%d:z%.4f:i%b:u%.6f:p[%s]" t.seed t.size_mb t.insecure
    t.mutate_pct
    (String.concat ";"
       (List.map (fun (sh, sk) -> sh ^ ":" ^ sk) t.plants))

let to_string t =
  Printf.sprintf "seed=%d size-mb=%g insecure=%b mutate-pct=%g plants=%s"
    t.seed t.size_mb t.insecure t.mutate_pct
    (if t.plants = [] then "(default)"
     else
       String.concat ","
         (List.map (fun (sh, sk) -> sh ^ ":" ^ sk) t.plants))

let resolve_shape name =
  match List.find_opt (fun sh -> Shape.to_string sh = name) Shape.all with
  | Some sh -> Ok sh
  | None ->
    Error
      (Printf.sprintf "unknown shape %S (one of: %s)" name
         (String.concat ", " (List.map Shape.to_string Shape.all)))

let resolve_sink name =
  match List.assoc_opt name sink_names with
  | Some sink -> Ok sink
  | None ->
    Error
      (Printf.sprintf "unknown sink %S (one of: %s)" name
         (String.concat ", " (List.map fst sink_names)))

(* Ten times the corpora's largest app (104.9 MB): a served spec must not
   make the daemon generate without bound. *)
let max_size_mb = 1024.0

let resolve t =
  let rec plants acc = function
    | [] -> Ok (List.rev acc)
    | (sh, sk) :: rest ->
      (match resolve_shape sh with
       | Error e -> Error e
       | Ok shape ->
         (match resolve_sink sk with
          | Error e -> Error e
          | Ok sink -> plants ({ G.shape; sink; insecure = t.insecure } :: acc)
              rest))
  in
  let specs =
    if t.plants = [] then [ (Shape.to_string Shape.Direct, "cipher") ]
    else t.plants
  in
  (* written so that NaN fails each test *)
  if not (t.size_mb > 0.0 && t.size_mb <= max_size_mb) then
    Error
      (Printf.sprintf "size-mb %g is out of range: it must be in (0, %g]"
         t.size_mb max_size_mb)
  else if not (t.mutate_pct >= 0.0 && t.mutate_pct <= 1.0) then
    Error
      (Printf.sprintf "mutate-pct %g is out of range: it must be in [0, 1]"
         t.mutate_pct)
  else
  match plants [] specs with
  | Error e -> Error e
  | Ok plants ->
    Ok
      { G.default_config with
        G.seed = t.seed;
        name = app_name t;
        filler_classes =
          Appgen.Corpus.filler_classes_for_mb ~mb:t.size_mb
            ~methods_per_class:6 ~stmts_per_method:8;
        plants }

let generate ?(build_dex = true) t =
  match resolve t with
  | Error e -> Error e
  | Ok cfg when t.mutate_pct > 0.0 ->
    Ok (G.mutate ~build_dex ~pct:t.mutate_pct (G.generate ~build_dex:false cfg))
  | Ok cfg -> Ok (G.generate ~build_dex cfg)
