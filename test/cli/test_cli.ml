(* CLI contract tests: the shared option record used by
   analyze/timing/serve validates its flags in one place, and invalid
   values exit 2 (usage error) before any command body runs.  Run
   against the real binary so the contract covers cmdliner wiring, not
   just the helpers. *)

(* `dune runtest` runs in the test's build directory; `dune exec` runs
   from the workspace root *)
let locate candidates =
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None -> Alcotest.failf "fixture not found: %s" (List.hd candidates)

let exe () =
  locate [ "../../bin/awesim.exe"; "_build/default/bin/awesim.exe" ]

let deck () = locate [ "../../decks/fig16.sp"; "decks/fig16.sp" ]
let design () = locate [ "../../decks/adder_stage.sta"; "decks/adder_stage.sta" ]
let fanout () = locate [ "../../decks/fanout.sta"; "decks/fanout.sta" ]

let multi_driver () =
  locate [ "../../decks/lint/multi_driver.sta"; "decks/lint/multi_driver.sta" ]

(* run the binary, feeding [stdin_text]; returns (exit code, stdout) *)
let run ?(stdin_text = "") args =
  let cmd =
    String.concat " " (List.map Filename.quote (exe () :: args))
    ^ " 2>/dev/null"
  in
  let out, inp = Unix.open_process cmd in
  (* a command that exits during validation closes the pipe first *)
  (try
     output_string inp stdin_text;
     close_out inp
   with Sys_error _ -> ());
  let buf = Buffer.create 256 in
  (try
     while true do
       Buffer.add_channel buf out 1
     done
   with End_of_file -> ());
  let status = Unix.close_process (out, inp) in
  let code =
    match status with
    | Unix.WEXITED n -> n
    | Unix.WSIGNALED n -> 128 + n
    | Unix.WSTOPPED n -> 128 + n
  in
  (code, Buffer.contents buf)

let check_exit name expected args =
  let code, _ = run args in
  Alcotest.(check int) name expected code

let test_bad_jobs () =
  (* every command sharing the option record rejects a negative --jobs
     identically, before reading anything *)
  check_exit "timing --jobs=-1" 2 [ "timing"; "--jobs=-1"; design () ];
  check_exit "analyze --jobs -1" 2 [ "analyze"; "--jobs=-1"; deck () ];
  check_exit "serve --jobs -1" 2 [ "serve"; "--jobs=-1" ]

let test_bad_model () =
  check_exit "timing --model bogus" 2 [ "timing"; "--model"; "bogus"; design () ];
  check_exit "timing --model 0" 2 [ "timing"; "--model"; "0"; design () ];
  check_exit "serve --model bogus" 2 [ "serve"; "--model"; "bogus" ]

let test_bad_top_k () =
  check_exit "timing --top-k -3" 2 [ "timing"; "--top-k=-3"; design () ]

let test_cache_flag_scope () =
  (* --no-cache belongs to commands that can run cacheless; commands
     whose sessions own their cache reject it as an unknown flag *)
  check_exit "timing --no-cache" 0 [ "timing"; "--no-cache"; design () ];
  check_exit "serve --no-cache" 124 [ "serve"; "--no-cache" ]

let test_serve_stdio () =
  let code, out =
    run
      ~stdin_text:"edit set_r out 0 500\ntiming\nrevert all\nquit\n"
      [ "serve"; design () ]
  in
  Alcotest.(check int) "serve exits cleanly" 0 code;
  let lines =
    String.split_on_char '\n' out |> List.filter (fun l -> l <> "")
  in
  Alcotest.(check int) "one response per request (plus the preload)" 5
    (List.length lines);
  List.iteri
    (fun i l ->
      Alcotest.(check bool)
        (Printf.sprintf "line %d is an ok JSON response (%s)" i l)
        true
        (String.length l > 10 && String.sub l 0 10 = {|{"ok":true|}))
    lines

(* Golden transcripts: the user-visible timing report on the adder
   deck, and the orders connectivity fixes — the sinks of a fan-out net
   as the report lists them (newest-declared first, one per gate even
   when a gate lists the net on two pins), and the sources lint names
   for a multiply-driven net (declaration order).  Each file holds the
   run's exit code on its first line, then its stdout, recorded once;
   every run must reproduce its recording byte for byte.  The report is
   %.4g text, so it is stable across libm builds.  A lint transcript
   names its deck, so the deck path as run is rewritten to its
   repository-relative form.  The [--stats] transcript pins every
   engine counter [Awe.Stats.pp] prints (cache bytes included); its
   phase-time lines are CPU measurements that vary run to run, so
   phase lines are dropped from every transcript before comparing. *)
let golden_runs () =
  let corners = locate [ "../../decks/corners.json"; "decks/corners.json" ] in
  [ ("timing_slack_top3.txt", [ "timing"; "--slack"; "--top-k"; "3"; design () ]);
    ("timing_top2.txt", [ "timing"; "--top-k"; "2"; design () ]);
    ( "timing_corners_top2.txt",
      [ "timing"; "--corners"; corners; "--top-k"; "2"; design () ] );
    ("timing_fanout_top1.txt", [ "timing"; "--top-k"; "1"; fanout () ]);
    ("timing_stats_j1.txt", [ "timing"; "--stats"; "-j"; "1"; design () ]);
    ("lint_multi_driver.txt", [ "lint"; multi_driver () ]) ]

(* every occurrence of [sub] in [s] replaced by [by] *)
let replace_all ~sub ~by s =
  let n = String.length sub and b = Buffer.create (String.length s) in
  let rec go i =
    if i > String.length s - n then
      Buffer.add_string b (String.sub s i (String.length s - i))
    else if String.sub s i n = sub then begin
      Buffer.add_string b by;
      go (i + n)
    end
    else begin
      Buffer.add_char b s.[i];
      go (i + 1)
    end
  in
  go 0;
  Buffer.contents b

(* an [Awe.Stats.pp] phase line: "<phase> time: <value> ms" *)
let is_phase_line l =
  match List.filter (fun w -> w <> "") (String.split_on_char ' ' l) with
  | [ _; "time:"; _; "ms" ] -> true
  | _ -> false

let drop_phase_lines out =
  String.split_on_char '\n' out
  |> List.filter (fun l -> not (is_phase_line l))
  |> String.concat "\n"

let test_golden () =
  List.iter
    (fun (file, args) ->
      let path = locate [ "golden/" ^ file; "test/cli/golden/" ^ file ] in
      let expected = In_channel.with_open_bin path In_channel.input_all in
      let code, out = run args in
      let out =
        replace_all ~sub:(multi_driver ()) ~by:"decks/lint/multi_driver.sta" out
        |> drop_phase_lines
      in
      Alcotest.(check string) file expected (Printf.sprintf "exit %d\n%s" code out))
    (golden_runs ())

let test_serve_eof () =
  (* closing stdin without quit is a clean shutdown, not a hang *)
  let code, _ = run ~stdin_text:"timing\n" [ "serve"; design () ] in
  Alcotest.(check int) "EOF ends the server" 0 code

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  Alcotest.run "cli"
    [ ( "exit-2 contract",
        [ Alcotest.test_case "negative --jobs" `Quick test_bad_jobs;
          Alcotest.test_case "bad --model" `Quick test_bad_model;
          Alcotest.test_case "negative --top-k" `Quick test_bad_top_k;
          Alcotest.test_case "--cache flag scope" `Quick test_cache_flag_scope
        ] );
      ("golden transcripts", [ Alcotest.test_case "timing reports" `Quick test_golden ]);
      ( "serve transport",
        [ Alcotest.test_case "stdio round-trip" `Quick test_serve_stdio;
          Alcotest.test_case "EOF shutdown" `Quick test_serve_eof ] ) ]
