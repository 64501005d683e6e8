(** Machine-readable exports of the experiment measurements: one CSV row per
    (app, tool) measurement, so the tables and figures can be re-plotted
    outside the harness.

    Besides the aggregate [insecure] count, every row carries one
    [insecure_<family>] column per built-in rule family (fixed
    {!Rules.Builtin.family_names} order), so per-rule detection can be
    plotted without re-running the corpus, plus trailing provenance
    columns: [incremental] — whether the engine was delta-patched from an
    older snapshot rather than built from scratch — and the derivation
    aggregates [resolutions]/[resolved_callers]/[work_spent] summed over
    the run's per-sink ledgers.  Rows written before a trailing column
    existed still parse (with the column at its zero value). *)

let base_header =
  [ "app"; "tool"; "seconds"; "timed_out"; "errored"; "sink_calls";
    "size_stmts"; "size_mb"; "insecure"; "search_cache_rate";
    "sink_cache_rate"; "loops"; "cross_backward_loops"; "partial_sinks";
    "parallelism" ]

let csv_header =
  String.concat ","
    (base_header
     @ List.map (fun f -> "insecure_" ^ f) Rules.Builtin.family_names
     @ [ "incremental"; "resolutions"; "resolved_callers"; "work_spent" ])

let csv_row (m : Runner.measurement) =
  Printf.sprintf "%s,%s,%.6f,%b,%b,%d,%d,%.2f,%d,%.4f,%.4f,%d,%d,%d,%d%s"
    m.app
    (Runner.tool_name m.tool)
    m.seconds m.timed_out m.errored m.sink_calls m.size_stmts m.size_mb
    m.insecure m.search_cache_rate m.sink_cache_rate m.loops
    m.cross_backward_loops m.partial_sinks m.parallelism
    (String.concat ""
       (List.map
          (fun f ->
             Printf.sprintf ",%d"
               (Option.value ~default:0 (List.assoc_opt f m.insecure_by_rule)))
          Rules.Builtin.family_names)
     ^ Printf.sprintf ",%b,%d,%d,%d" m.incremental m.resolutions
         m.resolved_callers m.work_spent)

(** Write all measurements of a corpus run to [path]. *)
let write_csv path (ms : Runner.measurement list) =
  let oc = open_out path in
  output_string oc csv_header;
  output_char oc '\n';
  List.iter
    (fun m ->
       output_string oc (csv_row m);
       output_char oc '\n')
    ms;
  close_out oc

(** Parse one row back (used by the round-trip test).  Rows from before the
    per-rule columns existed still parse, with an empty per-rule tally, and
    rows from before any of the trailing columns ([incremental], the
    provenance aggregates) parse with those columns at their zero value.
    A row too short, or with a field that does not convert, is [None]. *)
let parse_fields line =
  match String.split_on_char ',' line with
  | app :: tool :: seconds :: timed_out :: errored :: sink_calls :: size_stmts
    :: size_mb :: insecure :: search_cache_rate :: sink_cache_rate :: loops
    :: cross :: partial_sinks :: parallelism :: tail ->
    let n_fam = List.length Rules.Builtin.family_names in
    let per_rule, trailing =
      if List.length tail > n_fam then
        ( List.filteri (fun i _ -> i < n_fam) tail,
          List.filteri (fun i _ -> i >= n_fam) tail )
      else (tail, [])
    in
    let incremental =
      match trailing with b :: _ -> bool_of_string b | [] -> false
    in
    let trailing_int i =
      match List.nth_opt trailing i with
      | Some v -> int_of_string v
      | None -> 0
    in
    let rec zip fs vs =
      match (fs, vs) with
      | f :: fs, v :: vs -> (f, int_of_string v) :: zip fs vs
      | _ -> []
    in
    Some
      { Runner.app;
        tool =
          (match tool with
           | "BackDroid" -> Runner.Backdroid_tool
           | "Amandroid" -> Runner.Amandroid_tool
           | _ -> Runner.Flowdroid_cg_tool);
        seconds = float_of_string seconds;
        timed_out = bool_of_string timed_out;
        errored = bool_of_string errored;
        sink_calls = int_of_string sink_calls;
        size_stmts = int_of_string size_stmts;
        size_mb = float_of_string size_mb;
        insecure = int_of_string insecure;
        insecure_by_rule =
          List.filter
            (fun (_, n) -> n > 0)
            (zip Rules.Builtin.family_names per_rule);
        search_cache_rate = float_of_string search_cache_rate;
        sink_cache_rate = float_of_string sink_cache_rate;
        loops = int_of_string loops;
        cross_backward_loops = int_of_string cross;
        partial_sinks = int_of_string partial_sinks;
        parallelism = int_of_string parallelism;
        incremental;
        resolutions = trailing_int 1;
        resolved_callers = trailing_int 2;
        work_spent = trailing_int 3 }
  | _ -> None

let parse_row line =
  try parse_fields line with Failure _ | Invalid_argument _ -> None
