(* The CLI's analyze output, as reusable strings.  The daemon renders its
   responses through these exact formats, so a served report is
   byte-identical to the one-shot CLI's (the wall-clock header line is the
   only varying part, and it varies between any two runs). *)

module D = Backdroid.Driver
module Sinks = Framework.Sinks

let analyzed_line ~app_name ~seconds (r : D.result) =
  Printf.sprintf "analyzed %s in %.3fs: %d sink calls" app_name seconds
    r.D.stats.D.sink_calls

(* [report_line], appended to [b].  It runs once per sink on the serving
   worker, so it builds in place instead of interpreting a format. *)
let add_report_line b (rep : D.sink_report) =
  let add = Buffer.add_string b in
  add "  [";
  add (Backdroid.Detectors.verdict_to_string rep.D.verdict);
  add "] ";
  add rep.D.sink.Sinks.name;
  add " at ";
  add (Ir.Jsig.meth_to_string rep.D.meth);
  Buffer.add_char b ':';
  add (string_of_int rep.D.site);
  add " reachable=";
  add (string_of_bool rep.D.reachable);
  add " fact=";
  add (Backdroid.Facts.to_string rep.D.fact);
  match rep.D.outcome with
  | Backdroid.Context.Complete -> ()
  | Backdroid.Context.Partial _ ->
    add " [";
    add (Backdroid.Context.outcome_to_string rep.D.outcome);
    Buffer.add_char b ']'

let report_line rep =
  let b = Buffer.create 160 in
  add_report_line b rep;
  Buffer.contents b

let report_lines (r : D.result) = List.map report_line r.D.reports

let stats_line (r : D.result) =
  let s = r.D.stats in
  Printf.sprintf
    "stats: %d searches (%.1f%% cached), %d SSG nodes, %d SSG edges, %d \
     loops, %d partial sinks, %d replayed sinks, %d/7 index categories built"
    s.D.searches_total
    (100.0 *. s.D.search_cache_rate)
    s.D.ssg_nodes s.D.ssg_edges
    (Backdroid.Loopdetect.total s.D.loops)
    s.D.partial_sinks s.D.replayed_sinks s.D.index_categories_built

let render ~app_name ~seconds r =
  let b = Buffer.create (256 + (160 * List.length r.D.reports)) in
  Buffer.add_string b (analyzed_line ~app_name ~seconds r);
  Buffer.add_char b '\n';
  List.iter
    (fun rep ->
       add_report_line b rep;
       Buffer.add_char b '\n')
    r.D.reports;
  Buffer.add_string b (stats_line r);
  Buffer.add_char b '\n';
  Buffer.contents b
