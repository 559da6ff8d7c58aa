(* awesim — command-line front end: parse a SPICE-style deck, run AWE,
   compare against the built-in transient simulator, report poles,
   delays, and waveforms. *)

open Cmdliner

let read_deck path =
  match Circuit.Parser.parse_file path with
  | deck -> deck
  | exception Circuit.Parser.Parse_error (line, msg) ->
    Printf.eprintf "%s:%d: %s\n" path line msg;
    exit 2
  | exception Sys_error msg ->
    Printf.eprintf "%s\n" msg;
    exit 2

let read_design path =
  match Sta.Design_file.parse_file path with
  | d -> d
  | exception Sta.Design_file.Parse_error (line, msg) ->
    Printf.eprintf "%s:%d: %s\n" path line msg;
    exit 2
  | exception Sys_error msg ->
    Printf.eprintf "%s\n" msg;
    exit 2

(* refuse to run a solve that static analysis proves (or strongly
   predicts) will fail: print the offending diagnostics and stop
   before any factorization *)
let lint_gate path diags =
  (* normalize first: duplicates collapse per finding identity, not
     per traversal, and the report order is the documented one *)
  match Lint.gate ~strict:false (Lint.normalize diags) with
  | Ok () -> ()
  | Error offending ->
    Format.eprintf "%s: lint found blocking problems:@.%a@." path
      Lint.Diagnostic.pp_list offending;
    Format.eprintf "(run `awesim lint %s` for the full report)@." path;
    exit 1

let resolve_node deck node_opt =
  let circuit = deck.Circuit.Parser.circuit in
  let from_directive () =
    List.find_map
      (function
        | Circuit.Parser.Awe_node { node; _ } -> Some node
        | Circuit.Parser.Tran _ -> None)
      deck.Circuit.Parser.directives
  in
  let name =
    match node_opt with
    | Some n -> n
    | None -> (
      match from_directive () with
      | Some n -> n
      | None ->
        Printf.eprintf
          "no output node: pass --node or add a .awe directive\n";
        exit 2)
  in
  match Circuit.Netlist.find_node circuit name with
  | Some n -> (name, n)
  | None ->
    Printf.eprintf "unknown node %S\n" name;
    exit 2

let resolve_order deck order_opt =
  match order_opt with
  | Some q -> Some q
  | None ->
    List.find_map
      (function
        | Circuit.Parser.Awe_node { order; _ } -> order
        | Circuit.Parser.Tran _ -> None)
      deck.Circuit.Parser.directives

let resolve_tstop deck tstop_opt sys node =
  match tstop_opt with
  | Some t -> t
  | None -> (
    match
      List.find_map
        (function
          | Circuit.Parser.Tran { t_stop; _ } -> Some t_stop
          | Circuit.Parser.Awe_node _ -> None)
        deck.Circuit.Parser.directives
    with
    | Some t -> t
    | None ->
      (* heuristic horizon: 10x the generalized Elmore delay *)
      10. *. Float.max (Awe.elmore_equivalent sys ~node) 1e-12)

let deck_arg =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"DECK" ~doc:"SPICE-style netlist file.")

let node_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "n"; "node" ] ~docv:"NODE" ~doc:"Output node name.")

let order_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "q"; "order" ] ~docv:"Q" ~doc:"Approximation order.")

let tstop_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "t"; "tstop" ] ~docv:"SECONDS" ~doc:"Time horizon.")

let samples_arg =
  Arg.(
    value & opt int 500
    & info [ "samples" ] ~docv:"N" ~doc:"Waveform samples.")

let csv_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "csv" ] ~docv:"FILE" ~doc:"Write the waveform(s) as CSV.")

let sparse_arg =
  Arg.(
    value & flag
    & info [ "sparse" ]
        ~doc:"Use the sparse LU for the moment solves (large circuits).")

let stats_arg =
  Arg.(
    value & flag
    & info [ "stats" ]
        ~doc:
          "Print the Awe.Stats engine counters (factorizations, moment \
           solves, fits, escalations).")

let reduce_arg =
  Arg.(
    value
    & vflag true
        [ ( true,
            info [ "reduce" ]
              ~doc:
                "Run the model-order reduction pass before stamping (the \
                 default): parallel and unloaded series merges are exact; \
                 chain lumping and star merging preserve the low-order \
                 moments at every observed node.  --stats shows the \
                 node/element elimination counters." );
          ( false,
            info [ "no-reduce" ]
              ~doc:"Analyze the netlist exactly as written." ) ])

let jobs_arg =
  Arg.(
    value & opt int 0
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Worker domains for the parallel fan-out (results are identical \
           for any value).  0 = one per recommended core.")

(* the tree-wide --jobs convention, identical for analyze/timing/verify:
   0 (the CLI default) means "ask the runtime", negatives are rejected
   up front rather than raising from inside the pool *)
let resolve_jobs j =
  if j < 0 then begin
    Printf.eprintf "--jobs must be >= 0 (got %d); 0 = one per recommended core\n" j;
    exit 2
  end;
  if j = 0 then Parallel.default_jobs () else j

(* The analysis options shared by analyze/timing/serve, parsed and
   validated in one place (invalid values exit 2 before any command
   body runs).  [use_cache] only has a flag where a command can run
   cacheless — the sessions behind [serve] own their cache. *)
type common = {
  sparse : bool;
  stats : bool;
  reduce : bool;
  jobs : int;  (* resolved: >= 1 *)
  use_cache : bool;
}

let cache_flag =
  Arg.(
    value
    & vflag true
        [ ( true,
            info [ "cache" ]
              ~doc:
                "Enable the structure-sharing cache (the default): \
                 identical nets reuse one engine, structurally identical \
                 nets reuse one symbolic factorization.  Results are \
                 bit-identical with or without it; --stats shows the \
                 hit/miss counters." );
          ( false,
            info [ "no-cache" ]
              ~doc:"Disable the structure-sharing cache." ) ])

let common_term ?(cache = false) () =
  let mk sparse stats reduce jobs use_cache =
    { sparse; stats; reduce; jobs = resolve_jobs jobs; use_cache }
  in
  Term.(
    const mk $ sparse_arg $ stats_arg $ reduce_arg $ jobs_arg
    $ (if cache then cache_flag else const true))

let model_arg =
  Arg.(
    value & opt string "auto"
    & info [ "model" ] ~docv:"MODEL"
        ~doc:"Net delay model: elmore, auto, or a fixed AWE order.")

let resolve_model s =
  match String.lowercase_ascii s with
  | "elmore" -> Sta.Elmore_model
  | "auto" -> Sta.Awe_auto
  | s -> (
    match int_of_string_opt s with
    | Some q when q >= 1 -> Sta.Awe_model q
    | _ ->
      Printf.eprintf "bad --model %S (elmore | auto | <order>)\n" s;
      exit 2)

let pp_pole ppf (p : Linalg.Cx.t) =
  if p.Linalg.Cx.im = 0. then Format.fprintf ppf "%.5e" p.Linalg.Cx.re
  else Format.fprintf ppf "%.5e %+.5ej" p.Linalg.Cx.re p.Linalg.Cx.im

(* ------------------------------------------------------------------ *)

(* which checker a file gets: .sta designs get the design checks,
   anything else parses as a SPICE-style deck *)
let is_design path = Filename.check_suffix (String.lowercase_ascii path) ".sta"

let lint_file path =
  if is_design path then Lint.check_design (read_design path)
  else
    match Circuit.Parser.parse_file path with
    | deck -> Lint.check_circuit deck.Circuit.Parser.circuit
    | exception Circuit.Parser.Parse_error (line, msg) -> (
      (* value complaints are lint findings, not syntax errors *)
      match Lint.diagnostic_of_parse_error ~line msg with
      | Some d -> [ d ]
      | None ->
        Printf.eprintf "%s:%d: %s\n" path line msg;
        exit 2)
    | exception Sys_error msg ->
      Printf.eprintf "%s\n" msg;
      exit 2

let cmd_lint paths strict json quiet sarif baseline write_baseline =
  if json && sarif then begin
    Printf.eprintf "--json and --sarif are mutually exclusive\n";
    exit 2
  end;
  let base =
    match baseline with
    | None -> Lint.Baseline.empty
    | Some path -> (
      match Lint.Baseline.load path with
      | b -> b
      | exception Sys_error msg ->
        Printf.eprintf "%s\n" msg;
        exit 2)
  in
  let results =
    List.map (fun path -> (path, Lint.normalize (lint_file path))) paths
  in
  (* the baseline accepts the full current finding set; the filtered
     view below is what gets reported and gated *)
  (match write_baseline with
  | Some path -> Lint.Baseline.save path results
  | None -> ());
  let results =
    List.map
      (fun (path, diags) ->
        (path, Lint.Baseline.filter base ~file:path diags))
      results
  in
  let failed = ref false in
  List.iter
    (fun (_path, diags) ->
      match Lint.gate ~strict diags with
      | Ok () -> ()
      | Error _ -> failed := true)
    results;
  if sarif then begin
    print_endline (Lint.Sarif.report results)
  end
  else if json then begin
    let objects =
      List.map
        (fun (path, diags) ->
          Lint.Diagnostic.list_to_json ~file:path diags)
        results
    in
    match objects with
    | [ one ] -> print_endline one
    | many -> Printf.printf "[%s]\n" (String.concat ", " many)
  end
  else
    List.iter
      (fun (path, diags) ->
        let shown =
          if quiet then
            List.filter
              (fun d ->
                Lint.Diagnostic.effective_severity ~strict d
                = Lint.Diagnostic.Error)
              diags
          else diags
        in
        match shown with
        | [] -> Format.printf "%s: clean@." path
        | ds -> Format.printf "%s:@.%a@." path Lint.Diagnostic.pp_list ds)
      results;
  if !failed then exit 1

let cmd_analyze deck_path node_opt order_opt tstop_opt samples csv compare
    threshold shift { sparse; stats; reduce; jobs; use_cache = _ } =
  let deck = read_deck deck_path in
  (* lint always sees the netlist as written; reduction happens after *)
  lint_gate deck_path (Lint.check_circuit deck.Circuit.Parser.circuit);
  let name, node = resolve_node deck node_opt in
  let stats_before = Awe.Stats.snapshot () in
  let circuit, node =
    if not reduce then (deck.Circuit.Parser.circuit, node)
    else begin
      let circuit = deck.Circuit.Parser.circuit in
      (* preserve every .awe observation node, not just the one shown,
         so a later --node run on the same deck sees the same answer *)
      let ports =
        node
        :: List.filter_map
             (function
               | Circuit.Parser.Awe_node { node = n; _ } ->
                 Circuit.Netlist.find_node circuit n
               | Circuit.Parser.Tran _ -> None)
             deck.Circuit.Parser.directives
      in
      let r = Circuit.Reduce.reduce ~ports circuit in
      let rep = r.Circuit.Reduce.report in
      Awe.Stats.record_reduction
        ~nodes:rep.Circuit.Reduce.nodes_eliminated
        ~elements:rep.Circuit.Reduce.elements_eliminated
        ~parallels:rep.Circuit.Reduce.parallel_merges
        ~series:rep.Circuit.Reduce.series_merges
        ~chains:rep.Circuit.Reduce.chain_lumps
        ~stars:rep.Circuit.Reduce.star_merges;
      (r.Circuit.Reduce.circuit, r.Circuit.Reduce.node_map.(node))
    end
  in
  let sys = Circuit.Mna.build circuit in
  Awe.Stats.record_mna_build ();
  let options =
    { Awe.default_options with Awe.expansion_shift = shift; sparse }
  in
  let engine = Awe.Engine.create ~options sys in
  let a, err =
    match resolve_order deck order_opt with
    | Some q ->
      let a = Awe.Engine.approximate engine ~node ~q in
      (a, Awe.Engine.error_estimate engine ~node ~q)
    | None -> Awe.Engine.auto engine ~node
  in
  let t_stop = resolve_tstop deck tstop_opt sys node in
  Format.printf "node %s: order %d approximation@." name a.Awe.q;
  Format.printf "error estimate: %.3g%%@." (100. *. err);
  if stats then
    Format.printf "engine counters:@.%a@." Awe.Stats.pp
      (Awe.Stats.diff (Awe.Stats.snapshot ()) stats_before);
  Format.printf "steady state: %.6g V@." (Awe.steady_state a);
  Format.printf "poles (dominant first):@.";
  List.iter (fun p -> Format.printf "  %a@." pp_pole p) (Awe.poles a);
  (match threshold with
  | Some th -> (
    match Awe.delay a ~threshold:th ~t_max:t_stop with
    | Some t -> Format.printf "delay to %.3g V: %.6g s@." th t
    | None -> Format.printf "threshold %.3g V never crossed@." th)
  | None -> ());
  if compare then begin
    (* the reference simulation is independent of the AWE waveform
       sampling — overlap the two on the pool *)
    let wa, ws =
      Parallel.with_pool ~jobs (fun pool ->
          match
            Parallel.map pool
              (function
                | `Awe -> `Wa (Awe.waveform a ~t_stop ~samples)
                | `Sim ->
                  let r =
                    Transim.Transient.simulate sys ~t_stop
                      ~steps:(8 * samples)
                  in
                  `Ws (Transim.Transient.node_waveform r node))
              [| `Awe; `Sim |]
          with
          | [| `Wa wa; `Ws ws |] -> (wa, ws)
          | _ -> assert false)
    in
    Format.printf "relative L2 error vs simulation: %.3g%%@."
      (100. *. Waveform.relative_l2_error ws wa);
    print_string
      (Waveform.ascii_plot ~label:"awe (*) vs simulation (+)" [ wa; ws ]);
    match csv with
    | Some file ->
      let oc = open_out file in
      output_string oc (Waveform.pair_to_csv ~labels:("awe", "sim") wa ws);
      close_out oc;
      Format.printf "wrote %s@." file
    | None -> ()
  end
  else begin
    let wa = Awe.waveform a ~t_stop ~samples in
    print_string (Waveform.ascii_plot ~label:"awe approximation" [ wa ]);
    match csv with
    | Some file ->
      let oc = open_out file in
      output_string oc (Waveform.to_csv wa);
      close_out oc;
      Format.printf "wrote %s@." file
    | None -> ()
  end

let cmd_poles deck_path node_opt order_opt actual =
  let deck = read_deck deck_path in
  let name, node = resolve_node deck node_opt in
  let sys = Circuit.Mna.build deck.Circuit.Parser.circuit in
  let q = Option.value ~default:2 (resolve_order deck order_opt) in
  (match Awe.approximate sys ~node ~q with
  | a ->
    Format.printf "AWE order-%d poles at %s:@." q name;
    List.iter2
      (fun p (_, k) ->
        Format.printf "  pole %a   residue %a@." pp_pole p pp_pole k)
      (Awe.poles a) (Awe.residues a);
    (match Awe.Approx.zeros a.Awe.base with
    | [] -> ()
    | zs ->
      Format.printf "model zeros:@.";
      List.iter (fun z -> Format.printf "  %a@." pp_pole z) zs
    | exception Invalid_argument _ -> ())
  | exception Awe.Unstable_fit ps ->
    Format.printf "order %d fit is unstable (poles:" q;
    List.iter (Format.printf " %a" pp_pole) ps;
    Format.printf "); increase the order@."
  | exception Awe.Degenerate msg ->
    Format.printf "order %d fit is degenerate: %s@." q msg);
  if actual then begin
    let g = Circuit.Mna.g sys and c = Circuit.Mna.c sys in
    let f = Linalg.Lu.factor g in
    let n = Circuit.Mna.size sys in
    let m = Linalg.Matrix.create n n in
    for j = 0 to n - 1 do
      let col = Linalg.Lu.solve f (Linalg.Matrix.col c j) in
      for i = 0 to n - 1 do
        m.(i).(j) <- -.col.(i)
      done
    done;
    Format.printf "actual circuit poles:@.";
    List.iter
      (fun p -> Format.printf "  %a@." pp_pole p)
      (Linalg.Eigen.circuit_poles m)
  end

let cmd_sim deck_path node_opt tstop_opt samples csv =
  let deck = read_deck deck_path in
  let name, node = resolve_node deck node_opt in
  let sys = Circuit.Mna.build deck.Circuit.Parser.circuit in
  let t_stop = resolve_tstop deck tstop_opt sys node in
  let r = Transim.Transient.simulate sys ~t_stop ~steps:(8 * samples) in
  let w = Transim.Transient.node_waveform r node in
  Format.printf "transient at %s over %.4g s@." name t_stop;
  (match Waveform.delay_50pct w with
  | Some d -> Format.printf "50%% delay: %.6g s@." d
  | None -> ());
  print_string (Waveform.ascii_plot ~label:("v(" ^ name ^ ")") [ w ]);
  match csv with
  | Some file ->
    let oc = open_out file in
    output_string oc (Waveform.to_csv w);
    close_out oc;
    Format.printf "wrote %s@." file
  | None -> ()

let cmd_moments deck_path node_opt count =
  let deck = read_deck deck_path in
  let name, node = resolve_node deck node_opt in
  let sys = Circuit.Mna.build deck.Circuit.Parser.circuit in
  let out_var = Circuit.Mna.node_var sys node in
  let engine = Awe.Moments.make sys in
  let op0 = Circuit.Dc.initial sys in
  let op0p = Circuit.Dc.at_zero_plus sys op0 in
  let prob = Awe.Moments.base_problem engine op0p in
  let mu = Awe.Moments.mu (Awe.Moments.vectors engine prob ~count) ~out_var in
  Format.printf "moment power sums at %s (mu_j = sum_l k_l z_l^j):@." name;
  Array.iteri (fun j v -> Format.printf "  mu_%d = %.12e@." j v) mu;
  if Float.abs mu.(0) > 1e-300 && count > 1 then
    Format.printf "generalized Elmore delay -mu_1/mu_0 = %.6g s@."
      (-.(mu.(1) /. mu.(0)))

(* minimal JSON emission for the timing command: numbers print
   round-trippable (%.17g), non-finite values become null (a design
   with no constraints has infinite slack) *)
let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 32 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_float f =
  if Float.is_finite f then Printf.sprintf "%.17g" f else "null"

let json_pin = function
  | None -> "null"
  | Some inst -> json_string inst

let slack_json (s : Sta.pin_slack) =
  Printf.sprintf
    "{\"net\":%s,\"pin\":%s,\"transition\":%s,\"arrival\":%s,\"required\":%s,\
     \"slack\":%s}"
    (json_string s.Sta.sp_net) (json_pin s.Sta.sp_pin)
    (json_string (Sta.transition_string s.Sta.sp_transition))
    (json_float s.Sta.sp_arrival)
    (json_float s.Sta.sp_required)
    (json_float s.Sta.sp_slack)

let path_json (p : Sta.path) =
  let stage (st : Sta.path_stage) =
    Printf.sprintf
      "{\"net\":%s,\"pin\":%s,\"gate_delay\":%s,\"net_delay\":%s,\"arrival\":%s}"
      (json_string st.Sta.st_net) (json_pin st.Sta.st_pin)
      (json_float st.Sta.st_gate_delay)
      (json_float st.Sta.st_net_delay)
      (json_float st.Sta.st_arrival)
  in
  Printf.sprintf
    "{\"endpoint\":%s,\"pin\":%s,\"transition\":%s,\"input_arrival\":%s,\
     \"arrival\":%s,\"required\":%s,\"slack\":%s,\"stages\":[%s]}"
    (json_string p.Sta.path_endpoint)
    (json_pin p.Sta.path_pin)
    (json_string (Sta.transition_string p.Sta.path_transition))
    (json_float p.Sta.path_input_arrival)
    (json_float p.Sta.path_arrival)
    (json_float p.Sta.path_required)
    (json_float p.Sta.path_slack)
    (String.concat "," (List.map stage p.Sta.path_stages))

let report_json (r : Sta.report) paths =
  Printf.sprintf
    "{\"critical_arrival\":%s,\"critical_path\":[%s],\"worst_slack\":%s,\
     \"slacks\":[%s],\"paths\":[%s],\"failures\":[%s]}"
    (json_float r.Sta.critical_arrival)
    (String.concat "," (List.map json_string r.Sta.critical_path))
    (json_float r.Sta.worst_slack)
    (String.concat "," (List.map slack_json r.Sta.slacks))
    (String.concat "," (List.map path_json paths))
    (String.concat ","
       (List.map
          (fun f ->
            Printf.sprintf "{\"net\":%s,\"reason\":%s}"
              (json_string f.Sta.failed_net)
              (json_string f.Sta.reason))
          r.Sta.failures))

let corners_json (cr : Sta.corners_report) paths =
  Printf.sprintf
    "{\"corners\":[%s],\"worst_corner\":%s,\"worst_slack\":%s,\
     \"critical_arrival\":%s,\"paths\":[%s]}"
    (String.concat ","
       (List.map
          (fun (s : Sta.corner_summary) ->
            Printf.sprintf
              "{\"name\":%s,\"critical_arrival\":%s,\"worst_slack\":%s}"
              (json_string s.Sta.cs_name)
              (json_float s.Sta.cs_critical_arrival)
              (json_float s.Sta.cs_worst_slack))
          cr.Sta.summary))
    (json_string cr.Sta.worst_corner)
    (json_float cr.Sta.worst_slack_overall)
    (json_float cr.Sta.critical_arrival_overall)
    (String.concat "," (List.map path_json paths))

let cmd_timing design_path model { sparse; stats; reduce; jobs; use_cache }
    strict slack_only top_k corners_path json =
  let design = read_design design_path in
  lint_gate design_path (Lint.check_design design);
  let model = resolve_model model in
  if top_k < 0 then begin
    Printf.eprintf "--top-k must be non-negative\n";
    exit 2
  end;
  let timing_failure = function
    | Sta.Not_a_dag nets ->
      Printf.eprintf "combinational cycle through: %s\n"
        (String.concat ", " nets);
      exit 1
    | Sta.Malformed msg ->
      Printf.eprintf "malformed design: %s\n" msg;
      exit 1
    | e -> raise e
  in
  match corners_path with
  | None -> (
    let cache = if use_cache then Some (Sta.create_cache ()) else None in
    match Sta.analyze ~model ~sparse ~jobs ~strict ~reduce ?cache design with
    | report ->
      let paths =
        if top_k > 0 then Sta.critical_paths design report ~k:top_k else []
      in
      if json then print_endline (report_json report paths)
      else begin
        if slack_only then Format.printf "%a@." Sta.pp_slacks report
        else Format.printf "%a@." (Sta.pp_report ~verbose:stats) report;
        if paths <> [] then Format.printf "%a@." Sta.pp_paths paths
      end;
      (* tolerant mode still fails the run — it just times what it can
         and reports every diagnostic first; a violated constraint
         fails it too (signoff semantics) *)
      if report.Sta.failures <> [] then exit 1;
      if report.Sta.worst_slack < 0. then exit 1
    | exception e -> timing_failure e)
  | Some path -> (
    let corners =
      match Circuit.Corner.parse_file path with
      | corners -> corners
      | exception Circuit.Corner.Parse_error (line, msg) ->
        Printf.eprintf "%s:%d: %s\n" path line msg;
        exit 2
      | exception Sys_error msg ->
        Printf.eprintf "%s\n" msg;
        exit 1
    in
    match
      Sta.analyze_corners ~model ~sparse ~jobs ~strict ~reduce
        ~cache:use_cache design corners
    with
    | cr ->
      (* top-K paths are reported at the worst corner: the one whose
         violations (if any) bind the signoff *)
      let worst_run =
        List.find
          (fun (r : Sta.corner_run) ->
            r.Sta.run_corner.Circuit.Corner.name = cr.Sta.worst_corner)
          cr.Sta.runs
      in
      let paths =
        if top_k > 0 then
          Sta.critical_paths
            (Sta.corner_design design worst_run.Sta.run_corner)
            worst_run.Sta.run_report ~k:top_k
        else []
      in
      if json then print_endline (corners_json cr paths)
      else begin
        Format.printf "%a@." Sta.pp_corners cr;
        if slack_only then
          List.iter
            (fun (r : Sta.corner_run) ->
              Format.printf "corner %s:@.%a@."
                r.Sta.run_corner.Circuit.Corner.name Sta.pp_slacks
                r.Sta.run_report)
            cr.Sta.runs;
        if paths <> [] then
          Format.printf "critical paths at corner %s:@.%a@."
            cr.Sta.worst_corner Sta.pp_paths paths;
        if stats then
          List.iter
            (fun (r : Sta.corner_run) ->
              Format.printf "corner %s counters:@.%a@."
                r.Sta.run_corner.Circuit.Corner.name Awe.Stats.pp
                r.Sta.run_report.Sta.stats)
            cr.Sta.runs
      end;
      if List.exists (fun (r : Sta.corner_run) -> r.Sta.run_report.Sta.failures <> []) cr.Sta.runs
      then exit 1;
      if cr.Sta.worst_slack_overall < 0. then exit 1
    | exception e -> timing_failure e)

let cmd_verify seed count prop_count fuzz_count rel_l2 repro_dir quiet jobs =
  let config =
    { Verify.seed;
      count;
      prop_count;
      fuzz_count;
      tol = { Verify.Oracle.default_tol with Verify.Oracle.rel_l2 };
      repro_dir;
      jobs = resolve_jobs jobs }
  in
  let progress =
    if quiet then None else Some (fun msg -> Printf.eprintf "%s\n%!" msg)
  in
  let report = Verify.run ?progress config in
  Format.printf "%a@." Verify.pp_report report;
  if not (Verify.passed report) then exit 1

(* awesim serve: a long-lived ECO session daemon.  One Serve.t (and so
   at most one loaded session) per process; the protocol itself is in
   Sta.Serve, the CLI only owns the transport — stdin/stdout by
   default, a Unix-domain socket with --socket (connections are served
   one at a time and the session persists across them). *)
let cmd_serve { sparse; stats; reduce; jobs; use_cache = _ } model socket_path
    design_path =
  let model = resolve_model model in
  let gate d =
    match Lint.gate ~strict:false (Lint.normalize (Lint.check_design d)) with
    | Ok () -> Ok ()
    | Error offending ->
      Error (Format.asprintf "@[<v>%a@]" Lint.Diagnostic.pp_list offending)
  in
  let stats_before = Awe.Stats.snapshot () in
  let t = Sta.Serve.create ~model ~sparse ~jobs ~reduce ~gate () in
  (match design_path with
  | None -> ()
  | Some path ->
    let r = Sta.Serve.handle t ("load " ^ path) in
    print_endline r.Sta.Serve.body);
  (* one request line in, one JSON line out; returns true on [quit] *)
  let serve_channel ic oc =
    let rec loop () =
      match input_line ic with
      | exception End_of_file -> false
      | line ->
        let r = Sta.Serve.handle t line in
        output_string oc r.Sta.Serve.body;
        output_char oc '\n';
        flush oc;
        if r.Sta.Serve.quit then true else loop ()
    in
    loop ()
  in
  (match socket_path with
  | None -> ignore (serve_channel stdin stdout)
  | Some path ->
    (* reclaim a stale socket file, and only a socket file *)
    (match (Unix.stat path).Unix.st_kind with
    | Unix.S_SOCK -> Sys.remove path
    | _ ->
      Printf.eprintf "%s exists and is not a socket\n" path;
      exit 2
    | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ());
    let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.bind sock (Unix.ADDR_UNIX path);
    Unix.listen sock 1;
    Printf.eprintf "awesim serve: listening on %s\n%!" path;
    let rec accept_loop () =
      let fd, _ = Unix.accept sock in
      let quit =
        let ic = Unix.in_channel_of_descr fd in
        let oc = Unix.out_channel_of_descr fd in
        (* a dropped connection ends the connection, not the server *)
        try serve_channel ic oc with Sys_error _ -> false
      in
      (try Unix.close fd with Unix.Unix_error _ -> ());
      if not quit then accept_loop ()
    in
    accept_loop ();
    Unix.close sock;
    try Sys.remove path with Sys_error _ -> ());
  if stats then
    Format.eprintf "engine counters:@.%a@." Awe.Stats.pp
      (Awe.Stats.diff (Awe.Stats.snapshot ()) stats_before)

let cmd_elmore deck_path =
  let deck = read_deck deck_path in
  let circuit = deck.Circuit.Parser.circuit in
  match Awe.Elmore.delays circuit with
  | tds ->
    Format.printf "Elmore delays:@.";
    Array.iteri
      (fun node td ->
        if node <> Circuit.Element.ground && tds.(node) > 0. then
          Format.printf "  %-10s %.6g s@."
            (Circuit.Netlist.node_name circuit node)
            td)
      tds
  | exception Invalid_argument msg ->
    Format.printf "not an RC tree (%s); falling back to moment-based delays@."
      msg;
    let sys = Circuit.Mna.build circuit in
    for node = 1 to circuit.Circuit.Netlist.node_count - 1 do
      match Awe.elmore_equivalent sys ~node with
      | td ->
        Format.printf "  %-10s %.6g s@."
          (Circuit.Netlist.node_name circuit node)
          td
      | exception _ -> ()
    done

(* ------------------------------------------------------------------ *)

let analyze_t =
  let compare =
    Arg.(value & flag & info [ "compare" ] ~doc:"Also run the simulator.")
  in
  let threshold =
    Arg.(
      value
      & opt (some float) None
      & info [ "threshold" ] ~docv:"VOLTS" ~doc:"Report delay to a level.")
  in
  let shift =
    Arg.(
      value & opt float 0.
      & info [ "shift" ] ~docv:"RAD/S"
          ~doc:"Moment expansion point s0 (default 0, the paper's choice).")
  in
  Cmd.v
    (Cmd.info "analyze" ~doc:"AWE-approximate a node's response")
    Term.(
      const cmd_analyze $ deck_arg $ node_arg $ order_arg $ tstop_arg
      $ samples_arg $ csv_arg $ compare $ threshold $ shift
      $ common_term ())

let poles_t =
  let actual =
    Arg.(
      value & flag
      & info [ "actual" ] ~doc:"Also print the exact circuit poles.")
  in
  Cmd.v
    (Cmd.info "poles" ~doc:"Print AWE poles and residues")
    Term.(const cmd_poles $ deck_arg $ node_arg $ order_arg $ actual)

let sim_t =
  Cmd.v
    (Cmd.info "sim" ~doc:"Run the built-in transient simulator")
    Term.(
      const cmd_sim $ deck_arg $ node_arg $ tstop_arg $ samples_arg $ csv_arg)

let elmore_t =
  Cmd.v
    (Cmd.info "elmore" ~doc:"Print per-node Elmore delays")
    Term.(const cmd_elmore $ deck_arg)

let moments_t =
  let count =
    Arg.(
      value & opt int 6
      & info [ "count" ] ~docv:"N" ~doc:"Number of moments to print.")
  in
  Cmd.v
    (Cmd.info "moments" ~doc:"Print the raw moment sequence at a node")
    Term.(const cmd_moments $ deck_arg $ node_arg $ count)

let timing_t =
  let strict =
    Arg.(
      value & flag
      & info [ "strict" ]
          ~doc:
            "Abort on the first net that fails to time.  The default keeps \
             timing sibling nets and reports every per-net diagnostic \
             (still exiting nonzero).")
  in
  let slack =
    Arg.(
      value & flag
      & info [ "slack" ]
          ~doc:
            "Print only the slack table (per-pin required/arrival/slack at \
             the binding transition, worst first) instead of the full \
             per-net report.  Slack comes from the design's constraint and \
             clock cards.")
  in
  let top_k =
    Arg.(
      value & opt int 0
      & info [ "top-k" ] ~docv:"K"
          ~doc:
            "Also print the K worst critical paths, stage by stage (with \
             --corners: at the worst corner).")
  in
  let corners =
    Arg.(
      value
      & opt (some file) None
      & info [ "corners" ] ~docv:"SPEC"
          ~doc:
            "Analyze at every corner of a JSON corner spec (named derate \
             sets for wire R/C and cell drive/cap/intrinsic).  Corners \
             share one pattern-tier cache store; each keeps a private \
             exact tier.")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Emit the report as JSON on stdout (non-finite values become \
             null).")
  in
  Cmd.v
    (Cmd.info "timing" ~doc:"Static timing analysis of a design file")
    Term.(
      const cmd_timing $ deck_arg $ model_arg $ common_term ~cache:true ()
      $ strict $ slack $ top_k $ corners $ json)

let lint_t =
  let paths =
    Arg.(
      non_empty & pos_all file []
      & info [] ~docv:"FILE"
          ~doc:"SPICE-style decks, or timing designs (.sta).")
  in
  let strict =
    Arg.(
      value & flag
      & info [ "strict" ]
          ~doc:"Treat warnings as errors (the CI gate mode).")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Machine-readable diagnostics on stdout.")
  in
  let quiet =
    Arg.(
      value & flag
      & info [ "quiet" ] ~doc:"Only print blocking diagnostics.")
  in
  let sarif =
    Arg.(
      value & flag
      & info [ "sarif" ]
          ~doc:
            "Emit a SARIF 2.1.0 log on stdout (mutually exclusive \
             with $(b,--json)).")
  in
  let baseline =
    Arg.(
      value
      & opt (some file) None
      & info [ "baseline" ] ~docv:"FILE"
          ~doc:
            "Suppress findings whose fingerprints appear in this \
             baseline file; only new findings are reported and gated.")
  in
  let write_baseline =
    Arg.(
      value
      & opt (some string) None
      & info [ "write-baseline" ] ~docv:"FILE"
          ~doc:
            "Write the fingerprints of the current findings to FILE \
             (accepting them for future $(b,--baseline) runs).")
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Statically predict singular solves and degenerate AWE models \
          from the parsed deck, before any factorization")
    Term.(
      const cmd_lint $ paths $ strict $ json $ quiet $ sarif $ baseline
      $ write_baseline)

let verify_t =
  let seed =
    Arg.(
      value & opt int 42
      & info [ "seed" ] ~docv:"N" ~doc:"Base seed; the sweep is deterministic in it.")
  in
  let count =
    Arg.(
      value & opt int 200
      & info [ "count" ] ~docv:"K"
          ~doc:"Random circuits checked against the transient oracle.")
  in
  let prop_count =
    Arg.(
      value & opt int 60
      & info [ "prop-count" ] ~docv:"K"
          ~doc:"Seeds tried per metamorphic property.")
  in
  let fuzz_count =
    Arg.(
      value & opt int 1000
      & info [ "fuzz-count" ] ~docv:"K" ~doc:"Fuzz inputs per parser.")
  in
  let rel_l2 =
    Arg.(
      value
      & opt float Verify.Oracle.default_tol.Verify.Oracle.rel_l2
      & info [ "rel-l2" ] ~docv:"FRAC"
          ~doc:"Oracle waveform tolerance (transient-normalized L2).")
  in
  let repro_dir =
    Arg.(
      value
      & opt (some string) (Some "decks")
      & info [ "repro-dir" ] ~docv:"DIR"
          ~doc:"Where shrunk fuzz failures are written as repro decks.")
  in
  let quiet =
    Arg.(value & flag & info [ "quiet" ] ~doc:"Suppress progress on stderr.")
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:
         "Run the differential verification sweep: random circuits against \
          the transient oracle, metamorphic properties, and parser fuzzing")
    Term.(
      const cmd_verify $ seed $ count $ prop_count $ fuzz_count $ rel_l2
      $ repro_dir $ quiet $ jobs_arg)

let serve_t =
  let socket =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:
            "Listen on a Unix-domain socket instead of stdin/stdout.  \
             Connections are served one at a time; the loaded session \
             (and its warm incremental state) persists across them.")
  in
  let design =
    Arg.(
      value
      & pos 0 (some file) None
      & info [] ~docv:"DESIGN"
          ~doc:"Design file to load on startup (optional; the $(b,load) \
                command loads or replaces a design at any time).")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run a long-lived ECO timing session: load a design once, then \
          stream edit/timing/revert commands over a line protocol and pay \
          only dirty-cone re-analysis per query.  One command line in, one \
          JSON line out; see the protocol reference in the README.")
    Term.(const cmd_serve $ common_term () $ model_arg $ socket $ design)

let () =
  let doc = "asymptotic waveform evaluation for timing analysis" in
  let group =
    Cmd.group (Cmd.info "awesim" ~version:"1.0.0" ~doc)
      [ analyze_t; poles_t; sim_t; elmore_t; moments_t; timing_t; lint_t;
        verify_t; serve_t ]
  in
  exit
    (try Cmd.eval group with
    (* lint-clean decks can still be numerically singular for one
       specific value assignment; keep the typed message, not a trace *)
    | Circuit.Mna.Singular_dc msg ->
      Printf.eprintf "error: %s\n" msg;
      1)
