(* Library root.  The design model, the per-net solve, path tracing and
   the file format live in [Timing]; the timing engine lives in
   [Session] (a library's sibling modules cannot depend on its main
   module), whose all-dirty pass is [analyze].  Re-exported here so the
   public face stays [Sta.*]. *)

include Timing
module Session = Session
module Serve = Serve

let analyze = Session.analyze

(* Corners derate element values but never topology, so the per-corner
   analyses share one pattern-tier store; each corner keeps a private
   exact tier (exact keys are value-sensitive).  Corners run
   sequentially, each with the full wave-parallel fan-out of
   [analyze]. *)
let analyze_corners ?(model = Awe_auto) ?(sparse = false) ?(jobs = 1)
    ?(strict = true) ?(reduce = true) ?(cache = true) (d : design) corners =
  if corners = [] then
    invalid_arg "Sta.analyze_corners: need at least one corner";
  let names = List.map (fun c -> c.Circuit.Corner.name) corners in
  List.iter
    (fun n ->
      if List.length (List.filter (String.equal n) names) > 1 then
        invalid_arg
          (Printf.sprintf "Sta.analyze_corners: duplicate corner name %S" n))
    names;
  let patterns = Awe.Cache.create_patterns () in
  let runs =
    List.map
      (fun c ->
        let dc = corner_design d c in
        let corner_cache =
          if cache then Some (create_cache ~patterns ()) else None
        in
        let r =
          analyze ~model ~sparse ~jobs ~strict ~reduce ?cache:corner_cache dc
        in
        { run_corner = c; run_report = r; run_cache = corner_cache })
      corners
  in
  let summary =
    List.map
      (fun run ->
        { cs_name = run.run_corner.Circuit.Corner.name;
          cs_critical_arrival = run.run_report.critical_arrival;
          cs_worst_slack = run.run_report.worst_slack })
      runs
  in
  let worst_corner, worst_slack_overall =
    List.fold_left
      (fun (wn, ws) s ->
        if s.cs_worst_slack < ws then (s.cs_name, s.cs_worst_slack)
        else (wn, ws))
      ((List.hd summary).cs_name, (List.hd summary).cs_worst_slack)
      (List.tl summary)
  in
  let critical_arrival_overall =
    List.fold_left
      (fun acc s -> Float.max acc s.cs_critical_arrival)
      neg_infinity summary
  in
  { runs;
    summary;
    worst_corner;
    worst_slack_overall;
    critical_arrival_overall }
