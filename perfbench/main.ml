(* The repository benchmark: seeded decks and request streams driven
   through the library entry points [awesim timing] and [awesim serve]
   use, at their CLI defaults (AWE auto order, dense LU, reduction and
   the structure cache on, non-strict timing) and one job.

     main.exe --workload W --seed N --seconds S --trace 0|1 [--counts]

   The last line of standard output is one JSON object with the keys
   correct, attempted, failed and metrics: the end-to-end metrics of W
   untraced (all of them on the grid-shaped [grid_signoff] and
   [eco_serve]), its per-layer metrics traced, or with [--counts] the
   digests and deterministic counters the self-test compares across
   processes.  See README.md beside this file. *)

open Probe

let out_dir = ".perfbench_out"

let workloads = [ "grid_signoff"; "mesh_signoff"; "ladder_signoff"; "eco_serve" ]

(* Nets compared with the oracle: on the run's own design (the check),
   and on the workload's reference design (the [delay_err_max] metric).
   The ladder's 40-segment stages cost about 0.15 s of transient
   simulation each. *)
let oracle_stages workload =
  match workload with
  | "grid_signoff" | "eco_serve" -> (32, max_int)
  | "mesh_signoff" -> (64, 512)
  | _ -> (12, 48)

(* [delay_err_max] is measured on the design of one fixed seed, so that
   it moves only when the code does.  A max over a design's sinks is
   decided by its one or two worst nets: across seeds 1-10 it ranged
   from 0.004 to 0.025 on the mesh and from 0.009 to 0.030 on the
   ladder, far beyond any bound a regression gate could use.  Every
   run still checks its own design against the oracle tolerance. *)
let reference_seed = 1

let ms x = x *. 1e3

let us x = x *. 1e6

(* Repeat [f] (untimed warm-up first) until [seconds] have passed and at
   least [min] samples are in; each sample starts from a compacted heap
   so the repetitions see the same collector state. *)
let repeat ~seconds ~min f =
  ignore (f ());
  let stop = now () +. seconds in
  let rec go acc n =
    if n >= min && now () >= stop then List.rev acc
    else begin
      Gc.compact ();
      go (f () :: acc) (n + 1)
    end
  in
  go [] 0

let deck workload ~seed =
  let text = Decks.to_sta (Decks.design workload ~seed) in
  (* the writer is a fixpoint of parse: write (parse text) = text *)
  check "deck round-trip" (Decks.to_sta (Sta.Design_file.parse_string text) = text);
  text

let parse text = Trace.span "design_file.parse" (fun () -> Sta.Design_file.parse_string text)

let lint d =
  Trace.span "lint.check" (fun () ->
      Lint.gate ~strict:false (Lint.normalize (Lint.check_design d)))

let lint_gate d =
  match lint d with
  | Ok () -> Ok ()
  | Error ds -> Error (Format.asprintf "@[<v>%a@]" Lint.Diagnostic.pp_list ds)

(* --- cold signoff: deck -> report ----------------------------------- *)

(* Median over repetitions until [seconds] have passed and at least
   [min] ran. *)
let median_of ~seconds ~min f =
  let stop = now () +. seconds in
  let rec go acc i = if i >= min && now () >= stop then median acc else go (f i :: acc) (i + 1) in
  go [] 0

let setup_seconds text =
  median_of ~seconds:3. ~min:5 (fun i ->
      Trace.req := i;
      snd
        (time (fun () ->
             let d = parse text in
             check "lint gate" (lint d = Ok ()))))

type window = { report : Sta.report; cache : Sta.cache; seconds : float; words : float }

(* One cold-cache signoff: analyze, top-10 paths, text rendering. *)
let window ?(jobs = 1) d =
  let w0 = allocated () in
  let (report, cache), seconds =
    time (fun () ->
        let cache = Sta.create_cache () in
        let report =
          Trace.span "timing.analyze" (fun () ->
              let r = Sta.analyze ~jobs ~strict:false ~cache d in
              let s = r.stats in
              List.iter
                (fun (name, v) -> Trace.count name (float_of_int v))
                [ ("factorizations", s.factorizations);
                  ("moment_solves", s.moment_solves);
                  ("order_escalations", s.order_escalations);
                  ("cache_exact_hits", s.cache_exact_hits);
                  ("cache_misses", s.cache_misses);
                  ("reduce_nodes_eliminated", s.reduce_nodes_eliminated) ];
              r)
        in
        let paths = Trace.span "paths" (fun () -> Sta.critical_paths d report ~k:10) in
        Trace.span "report.render" (fun () ->
            let b = Buffer.create (1 lsl 20) in
            let ppf = Format.formatter_of_buffer b in
            Format.fprintf ppf "%a@.%a@." (Sta.pp_report ~verbose:false) report Sta.pp_paths
              paths);
        (report, cache))
  in
  { report; cache; seconds; words = allocated () -. w0 }

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

let hit_ratio (s : Awe.Stats.snapshot) =
  ratio (s.cache_exact_hits + s.cache_pattern_hits)
    (s.cache_exact_hits + s.cache_pattern_hits + s.cache_misses)

(* Counters that repeat exactly for one seed, whatever the host. *)
let signoff_counts (w : window) (rp : replay) =
  let s = w.report.stats in
  [ ("awe.escalations", "count", float_of_int s.order_escalations);
    ("awe.moment_solves", "count", float_of_int s.moment_solves);
    ("cache.hit_ratio", "ratio", hit_ratio s);
    ("reduce.node_ratio", "ratio", ratio rp.eliminated rp.stage_nodes);
    ("gc.alloc_mw", "Mwords", w.words /. 1e6);
    ("cache.bytes", "B", float_of_int (Sta.cache_bytes w.cache)) ]

let check_accuracy d (r : Sta.report) ~seed ~k =
  let a = accuracy d r ~seed ~k in
  check "oracle sample not empty" (a.sampled > 0);
  check
    (Printf.sprintf "%d sampled sinks miss the oracle (tolerance %g)" a.misses
       Verify.Oracle.default_tol.rel_l2)
    (a.misses = 0);
  a

(* The run's own design is checked on a sample; the reference design
   gives the metric. *)
let accuracies workload d (r : Sta.report) ~seed =
  let own_k, ref_k = oracle_stages workload in
  let own = check_accuracy d r ~seed ~k:own_k in
  let rd = Decks.design workload ~seed:reference_seed in
  let rr = Sta.analyze ~strict:false ~cache:(Sta.create_cache ()) rd in
  let reference = check_accuracy rd rr ~seed:reference_seed ~k:ref_k in
  Printf.eprintf "oracle: own design max %.6g over %d sinks; reference (seed %d) max %.6g over %d sinks\n%!"
    own.err_max own.sampled reference_seed reference.err_max reference.sampled;
  (own, reference)

type sample = { secs : float; dg : string; failures : int }

let sample (w : window) = { secs = w.seconds; dg = digest w.report; failures = List.length w.report.failures }

(* The checks on a run's cold windows, of which only [first] (the
   warm-up) is kept whole, and the cold metrics. *)
let cold_result workload d ~seed ~(first : window) samples =
  let nets = Sta.Synth.net_count d in
  Printf.eprintf "windows (ms): %s\n%!"
    (String.concat " " (List.map (fun x -> Printf.sprintf "%.1f" (ms x.secs)) samples));
  let dg = digest first.report in
  check "digest identical across repetitions" (List.for_all (fun x -> x.dg = dg) samples);
  check "digest identical with the cache off" (digest (Sta.analyze ~strict:false d) = dg);
  let _, a = accuracies workload d first.report ~seed in
  ( nets * List.length samples,
    List.fold_left (fun n x -> n + x.failures) 0 samples,
    [ ("nets_per_s", "nets/s", float_of_int nets /. median (List.map (fun x -> x.secs) samples));
      ("delay_err_max", "ratio", a.err_max) ] )

(* A design without a serve stream ([mesh_signoff], [ladder_signoff]):
   cache-cold signoff windows for [seconds] (at least three after the
   warm-up), then set-up, timed after the windows so that its
   repetitions do not shape the heap peak, then the checks.  The heap
   peak is read after the third timed window, so that it covers the same
   work however many windows fit in the run. *)
let cold workload d text ~seed ~seconds =
  let first = ref None and calls = ref 0 and peak = ref nan in
  let samples =
    repeat ~seconds ~min:3 (fun () ->
        let w = window d in
        if Option.is_none !first then first := Some w;
        incr calls;
        if !calls = 4 then peak := peak_heap_mb ();
        sample w)
  in
  let setup = setup_seconds text in
  let a, f, metrics = cold_result workload d ~seed ~first:(Option.get !first) samples in
  (a, f, ("setup_s", "s", setup) :: ("peak_heap_mb", "MB", !peak) :: metrics)

let analyze_ms ~name ?jobs ?(cached = true) d reps =
  let run () =
    if cached then Sta.analyze ?jobs ~strict:false ~cache:(Sta.create_cache ()) d
    else Sta.analyze ?jobs ~strict:false d
  in
  ignore (run ());
  median
    (List.init reps (fun _ ->
         Gc.compact ();
         snd
           (time (fun () ->
                Trace.span name run))))
  |> ms

let pct part whole = 100. *. part /. whole

(* The traced cold phase.  As the second phase of a workload ([light])
   it takes one repetition where its own takes three. *)
let cold_traced workload d text ~seed ~light =
  let reps = if light then 1 else 3 in
  Trace.on := true;
  ignore (setup_seconds text);
  let nets = Sta.Synth.net_count d in
  (* tracing overhead: the same window untraced and traced *)
  Trace.on := false;
  let plain = repeat ~seconds:0. ~min:reps (fun () -> window d) in
  Trace.on := true;
  let traced = repeat ~seconds:0. ~min:reps (fun () -> window d) in
  let w = List.hd traced in
  let dg = digest w.report in
  check "digest identical across repetitions"
    (List.for_all (fun x -> digest x.report = dg) (plain @ traced));
  let analyze = median (Trace.durations "timing.analyze") in
  let uncached = analyze_ms ~name:"timing.analyze_uncached" ~cached:false d reps in
  (* per-layer replay of the cached cold path, then uncached solves *)
  Gc.compact ();
  let rp = replay_layers d w.report in
  check (Printf.sprintf "%d replayed sinks differ from the report" rp.mismatches) (rp.mismatches = 0);
  let inputs = stage_inputs d w.report in
  List.iter
    (fun net ->
      let driver_res, slew = inputs net in
      ignore (Trace.span "timing.solve_net" (fun () -> solve d ~reduce:true ~net ~driver_res ~slew)))
    (wave_order d);
  let solves = ms (Trace.total "timing.solve_net") in
  (* growth: the same generator and seed at a quarter of the nets *)
  let small = Sta.Design_file.parse_string (Decks.to_sta (Decks.design ~quarter:true workload ~seed)) in
  let small_ms = analyze_ms ~name:"timing.analyze_quarter" small reps in
  let growth =
    ms analyze /. float_of_int nets /. (small_ms /. float_of_int (Sta.Synth.net_count small))
  in
  let j1 = analyze_ms ~name:"timing.analyze_j1" ~jobs:1 d reps in
  let j2 = analyze_ms ~name:"timing.analyze_j2" ~jobs:2 d reps in
  let _, a = accuracies workload d w.report ~seed in
  let per_net name n = us (Trace.total name) /. float_of_int (max n 1) in
  let span_ms name = ms (median (Trace.durations name)) in
  let metrics =
    [ ("design_file.parse_ms", "ms", span_ms "design_file.parse");
      ("lint.check_ms", "ms", span_ms "lint.check");
      ("timing.analyze_ms", "ms", ms analyze);
      ("timing.growth", "x", growth);
      ("timing.stage_us_per_net", "us", per_net "timing.stage" nets);
      ("timing.coord_ms", "ms", uncached -. solves);
      ("reduce.us_per_net", "us", per_net "reduce" rp.nets);
      ("reduce.drift_max", "ratio", a.drift_max);
      ("canon.us_per_net", "us", per_net "canon" rp.nets);
      ("cache.saved_ms", "ms", uncached -. ms analyze);
      ("mna.us_per_net", "us", per_net "mna" rp.computed);
      ("awe.factor_us_per_net", "us", per_net "awe.factor" rp.computed);
      ("awe.fit_us_per_sink", "us", per_net "awe.fit" rp.sinks);
      ("awe.crossing_us_per_sink", "us", per_net "awe.crossing" rp.sinks);
      ("paths.ms", "ms", span_ms "paths");
      ("report.render_ms", "ms", span_ms "report.render") ]
    @ signoff_counts w rp
    @ [ ("parallel.speedup_j2", "x", j1 /. j2) ]
  in
  let plain_ms = ms (median (List.map (fun x -> x.seconds) plain)) in
  let traced_ms = ms (median (List.map (fun x -> x.seconds) traced)) in
  Format.printf "tracing overhead: %.3f ms per signoff window (%.3f untraced, %.3f traced)@."
    (traced_ms -. plain_ms) plain_ms traced_ms;
  (* where a cold cached analyze spends its time *)
  let layer name = ms (Trace.total name) in
  let parts =
    [ ("stage build", layer "timing.stage");
      ("reduce", layer "reduce");
      ("canon and cache", layer "canon");
      ("mna build", layer "mna");
      ("awe kernel (factor, auto, crossings)",
       layer "awe.factor" +. layer "awe.fit" +. layer "awe.crossing") ]
  in
  let a_ms = ms analyze in
  Format.printf "split of %s cold analyze (%.1f ms, %d nets, %d computed):@." workload a_ms nets
    rp.computed;
  List.iter (fun (n, v) -> Format.printf "  %-38s %9.2f ms %6.1f %%@." n v (pct v a_ms)) parts;
  let coord = a_ms -. sum (List.map snd parts) in
  Format.printf "  %-38s %9.2f ms %6.1f %%@." "coordination (analyze - layers)" coord (pct coord a_ms);
  Format.printf "  uncached analyze %.1f ms = solve_net %.1f ms + timing.coord_ms %.1f ms@." uncached
    solves (uncached -. solves);
  (nets * List.length traced, List.fold_left (fun n x -> n + List.length x.report.failures) 0 traced, metrics)

(* --- the serve stream: one client on the serve protocol ------------ *)

let ok_reply body = String.length body >= 10 && String.sub body 0 10 = "{\"ok\":true"

(* [f path] with the deck written to [path], for [load] to read. *)
let with_deck workload ~seed text f =
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  let path = Filename.concat out_dir (Printf.sprintf "%s-%d.sta" workload seed) in
  Out_channel.with_open_bin path (fun oc -> output_string oc text);
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

type served = {
  writes : float list;  (** first edit of a burst -> its [timing] reply *)
  reads : float list;
  requests : int;
  not_ok : int;
}

let no_requests = { writes = []; reads = []; requests = 0; not_ok = 0 }

(* Blocks a run plays at least: 200 bursts and 100 reads, so that at
   least ten samples lie beyond p95 and p90. *)
let blocks_per_pass = 10

(* Play block [block] of the stream against [handle]. *)
let play_block ~side ~seed d handle acc block =
  List.fold_left
    (fun acc rq ->
      Trace.req := acc.requests;
      let lines =
        match rq with
        | Decks.Write edits -> edits @ [ Decks.write_line ]
        | Decks.Read -> [ Decks.read_line ]
      in
      let oks, t = time (fun () -> List.map handle lines) in
      let bad = List.length (List.filter not oks) in
      match rq with
      | Decks.Write _ ->
        { acc with writes = t :: acc.writes; requests = acc.requests + List.length lines;
                   not_ok = acc.not_ok + bad }
      | Decks.Read ->
        { acc with reads = t :: acc.reads; requests = acc.requests + 1; not_ok = acc.not_ok + bad })
    acc (Decks.eco_block d ~side ~seed ~block)

let play ~side ~seed ~blocks d handle =
  List.fold_left (play_block ~side ~seed d handle) no_requests (List.init blocks Fun.id)

let load path =
  let srv = Sta.Serve.create ~gate:lint_gate () in
  let reply, t =
    time (fun () -> Trace.span "serve.load" (fun () -> Sta.Serve.handle srv ("load " ^ path)))
  in
  check "load reply ok" (ok_reply reply.body);
  (srv, t)

let serve_handle srv line =
  let r = Trace.span "serve.handle" (fun () -> Sta.Serve.handle srv line) in
  ok_reply r.body

let session srv =
  match Sta.Serve.session srv with Some s -> s | None -> failwith "no session loaded"

(* Contracts after a stream: the session report is a cold analyze of
   the edited design, and reverting everything restores the load. *)
let check_session srv ~loaded =
  let s = session srv in
  let cold = Sta.analyze ~strict:false ~cache:(Sta.create_cache ()) (Sta.Session.design s) in
  check "session report equals a cold analyze" (digest (Sta.Session.report s) = digest cold);
  check "revert all reply ok" (ok_reply (Sta.Serve.handle srv "revert all").body);
  check "timing after revert ok" (ok_reply (Sta.Serve.handle srv Decks.write_line).body);
  check "revert all restores the load digest" (digest (Sta.Session.report s) = loaded)

(* A grid-shaped design: a serve session on the deck, then rounds of
   one cache-cold signoff window and one block of the stream until
   [seconds] have passed and at least [blocks_per_pass] blocks ran.  The
   two interleave so that each samples the host's speed over the whole
   run, which drifts by 20-40 % over a minute or two.  Each window and
   block starts from a compacted heap.  Set-up is the [load] request on
   [eco_serve] (the median of several loads, of which only the last
   server stays alive), and parse plus lint, timed after the rounds, on
   [grid_signoff].  The heap peak is read after block [blocks_per_pass],
   so that it covers the same work however many rounds fit in the run. *)
let mixed workload d text ~side ~seed ~seconds =
  with_deck workload ~seed text (fun path ->
      let srv, load_setup =
        if workload <> "eco_serve" then (fst (load path), nan)
        else begin
          let last = ref None in
          let setup =
            median_of ~seconds:5. ~min:3 (fun _ ->
                last := None;
                Gc.compact ();
                let srv, t = load path in
                last := Some srv;
                t)
          in
          (Option.get !last, setup)
        end
      in
      let loaded = digest (Sta.Session.report (session srv)) in
      let first = window d and peak = ref nan in
      let stop = now () +. seconds in
      let rec go block samples p =
        if block >= blocks_per_pass && now () >= stop then (List.rev samples, p)
        else begin
          Gc.compact ();
          let samples = sample (window d) :: samples in
          Gc.compact ();
          let p = play_block ~side ~seed d (serve_handle srv) p block in
          if block + 1 = blocks_per_pass then peak := peak_heap_mb ();
          go (block + 1) samples p
        end
      in
      let samples, p = go 0 [] no_requests in
      let fallbacks = (Sta.Session.totals (session srv)).total_fallbacks in
      check "every reply ok" (p.not_ok = 0);
      check "no retime rollback" (fallbacks = 0);
      check_session srv ~loaded;
      let setup = if workload = "eco_serve" then load_setup else setup_seconds text in
      let a, f, metrics = cold_result workload d ~seed ~first samples in
      ( a + p.requests,
        f + p.not_ok + fallbacks,
        [ ("setup_s", "s", setup); ("peak_heap_mb", "MB", !peak) ]
        @ metrics
        @ [ ("retime_p50_ms", "ms", ms (median p.writes));
            ("retime_p95_ms", "ms", ms (quantile p.writes 0.95));
            ("query_p50_ms", "ms", ms (median p.reads));
            ("query_p90_ms", "ms", ms (quantile p.reads 0.9)) ] ))

(* The edits the stream generator emits, as session edits. *)
let edit_of line =
  match String.split_on_char ' ' line with
  | [ "edit"; "set_r"; net; i; v ] ->
    Sta.Session.Set_resistance { net; index = int_of_string i; value = float_of_string v }
  | [ "edit"; "set_c"; net; i; v ] ->
    Sta.Session.Set_capacitance { net; index = int_of_string i; value = float_of_string v }
  | [ "edit"; "set_drive"; inst; v ] -> Sta.Session.Set_drive { inst; value = float_of_string v }
  | [ "edit"; "set_constraint"; net; v ] ->
    Sta.Session.Set_constraint { net; required = float_of_string v }
  | _ -> invalid_arg ("edit_of: " ^ line)

type bare = {
  retimes : float list;  (** apply burst + retime *)
  dirty : int list;
  reused : int list;
  bare_reads : float list;  (** no-op retime + top-10 paths *)
  words : float;
  sess : Sta.Session.t;
}

(* The same stream against a bare [Sta.Session]: no protocol, no
   JSON. *)
let bare_replay ~side ~seed ~blocks text =
  let d = parse text in
  check "lint gate" (lint d = Ok ());
  let s = Trace.span "session.create" (fun () -> Sta.Session.create d) in
  let stream = List.concat (List.init blocks (fun block -> Decks.eco_block d ~side ~seed ~block)) in
  Gc.compact ();
  let w0 = allocated () in
  let retimes = ref [] and dirty = ref [] and reused = ref [] and reads = ref [] in
  List.iteri
    (fun i rq ->
      Trace.req := i;
      match rq with
      | Decks.Write edits ->
        let r, t =
          time (fun () ->
              List.iter
                (fun e ->
                  check "session edit applies"
                    (Trace.span "session.apply" (fun () -> Sta.Session.apply s (edit_of e)) = Ok ()))
                edits;
              Trace.span "session.retime" (fun () -> Sta.Session.retime s))
        in
        (match r with
        | Ok r ->
          dirty := r.stats.eco_dirty_nets :: !dirty;
          reused := r.stats.eco_reused_nets :: !reused;
          Trace.count "session.dirty" (float_of_int r.stats.eco_dirty_nets)
        | Error msg -> check ("session retime: " ^ msg) false);
        retimes := t :: !retimes
      | Decks.Read ->
        let (), t =
          time (fun () ->
              match Trace.span "session.retime_noop" (fun () -> Sta.Session.retime s) with
              | Ok r -> ignore (Trace.span "paths" (fun () -> Sta.critical_paths (Sta.Session.design s) r ~k:10))
              | Error msg -> check ("session read: " ^ msg) false)
        in
        reads := t :: !reads)
    stream;
  { retimes = !retimes; dirty = !dirty; reused = !reused; bare_reads = !reads;
    words = allocated () -. w0; sess = s }

let mean_int xs = float_of_int (List.fold_left ( + ) 0 xs) /. float_of_int (max 1 (List.length xs))

let eco_counts (b : bare) =
  [ ("session.dirty_per_retime", "nets", mean_int b.dirty);
    ("session.reused_per_retime", "nets", mean_int b.reused);
    ("gc.alloc_mw", "Mwords", b.words /. 1e6);
    ("cache.bytes", "B", float_of_int (Sta.cache_bytes (Sta.Session.cache b.sess)));
    ("session.fallbacks", "count", float_of_int (Sta.Session.totals b.sess).total_fallbacks) ]

(* Blocks a traced serve phase plays as the second phase of a workload,
   where its own plays [blocks_per_pass]. *)
let light_blocks = 4

(* The traced serve phase: the stream once untraced and once traced
   through the protocol, then against a bare session. *)
let serve_traced workload d text ~side ~seed ~light =
  let blocks = if light then light_blocks else blocks_per_pass in
  let traced, plain =
    with_deck workload ~seed text (fun path ->
        (* tracing overhead: one pass untraced, one traced *)
        Trace.on := false;
        let srv, _ = load path in
        let loaded = digest (Sta.Session.report (session srv)) in
        let plain = play ~side ~seed ~blocks d (serve_handle srv) in
        check_session srv ~loaded;
        Trace.on := true;
        let srv, _ = load path in
        let traced = play ~side ~seed ~blocks d (serve_handle srv) in
        check "every reply ok" (plain.not_ok + traced.not_ok = 0);
        check_session srv ~loaded;
        (traced, plain))
  in
  Trace.req := 0;
  let b = bare_replay ~side ~seed ~blocks text in
  let dirty_total = List.fold_left ( + ) 0 b.dirty in
  let retime_total = sum (Trace.durations "session.retime") in
  let metrics =
    [ ("design_file.parse_ms", "ms", ms (median (Trace.durations "design_file.parse")));
      ("lint.check_ms", "ms", ms (median (Trace.durations "lint.check")));
      ("session.create_ms", "ms", ms (median (Trace.durations "session.create")));
      ("session.apply_us", "us", us (median (Trace.durations "session.apply")));
      ("session.retime_p50_ms", "ms", ms (median (Trace.durations "session.retime")));
      ("session.retime_p95_ms", "ms", ms (quantile (Trace.durations "session.retime") 0.95));
      ("session.us_per_dirty_net", "us", us retime_total /. float_of_int (max 1 dirty_total));
      ("serve.json_ms", "ms", ms (median traced.reads -. median b.bare_reads));
      ("paths.ms", "ms", ms (median (Trace.durations "paths"))) ]
    @ eco_counts b
  in
  Format.printf "tracing overhead: retime p50 %+.3f ms, query p50 %+.3f ms (traced - untraced)@."
    (ms (median traced.writes -. median plain.writes))
    (ms (median traced.reads -. median plain.reads));
  (traced.requests, traced.not_ok, metrics)

(* --- runs ------------------------------------------------------------ *)

let run workload ~seed ~seconds =
  let text = Decks.to_sta (Decks.design workload ~seed) in
  let d = Sta.Design_file.parse_string text in
  let result =
    match Decks.serve_side workload with
    | None -> cold workload d text ~seed ~seconds
    | Some side -> mixed workload d text ~side ~seed ~seconds
  in
  (* the writer is checked after the timed work, so its parse does not
     shape the heap peak *)
  ignore (deck workload ~seed);
  result

(* The traced run times the two kinds of work one after the other, on a
   grid-shaped design the workload's own first; the second, lighter,
   completes the per-layer table, and a metric both give keeps the
   first's value.  [mesh_signoff] and [ladder_signoff] have no serve
   stream and trace the cold work alone. *)
let run_traced workload ~seed =
  let text = deck workload ~seed in
  let d = Sta.Design_file.parse_string text in
  let cold = cold_traced workload d text ~seed in
  let phases =
    match Decks.serve_side workload with
    | None -> [ cold ]
    | Some side ->
      let serve = serve_traced workload d text ~side ~seed in
      if workload = "eco_serve" then [ serve; cold ] else [ cold; serve ]
  in
  let merged =
    List.fold_left
      (fun (a, f, ms) (a', f', ms') ->
        let fresh (n, _, _) = not (List.exists (fun (m, _, _) -> m = n) ms) in
        (a + a', f + f', ms @ List.filter fresh ms'))
      (0, 0, [])
      (List.mapi (fun i phase -> phase ~light:(i > 0)) phases)
  in
  Trace.pp_table Format.std_formatter ();
  merged

(* --- counts mode, for the self-test -------------------------------- *)

let counts workload ~seed =
  let text = deck workload ~seed in
  let d = Sta.Design_file.parse_string text in
  if workload <> "eco_serve" then begin
    let w = window d in
    let rp = replay_layers d w.report in
    let mem = Sta.analyze ~strict:false (Decks.design workload ~seed) in
    ( digest w.report,
      digest mem = digest w.report,
      signoff_counts w rp )
  end
  else begin
    let b = bare_replay ~side:Decks.eco_side ~seed ~blocks:blocks_per_pass text in
    let mem = Sta.analyze ~strict:false (Decks.design workload ~seed) in
    ( digest (Sta.Session.report b.sess),
      digest mem = digest (Sta.analyze ~strict:false d),
      eco_counts b )
  end

(* --- entry point --------------------------------------------------- *)

let json_metrics metrics =
  String.concat ","
    (List.map
       (fun (name, unit, v) -> Printf.sprintf "\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}" name v unit)
       metrics)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 and count_mode = ref false in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "W one of " ^ String.concat ", " workloads);
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measuring time per run");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or traced per-layer (1) metrics");
      ("--counts", Arg.Set count_mode, " print digests and deterministic counters only") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload W --seed N --seconds S --trace 0|1";
  let w = !workload and seed = !seed in
  if not (List.mem w workloads) then begin
    prerr_endline ("unknown workload: " ^ w);
    exit 2
  end;
  let report_violations () =
    List.iter (fun v -> prerr_endline ("check failed: " ^ v)) (List.rev !violations);
    !violations = []
  in
  if !count_mode then begin
    let dg, roundtrip, cs = counts w ~seed in
    Printf.printf "{\"workload\":\"%s\",\"seed\":%d,\"digest\":\"%s\",\"roundtrip\":%b,\"counts\":{%s}}\n%!"
      w seed dg roundtrip (json_metrics cs);
    exit (if report_violations () then 0 else 1)
  end;
  let attempted, failed, metrics =
    if !trace = 0 then run w ~seed ~seconds:!seconds else run_traced w ~seed
  in
  if !trace <> 0 then begin
    if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
    Trace.write (Filename.concat out_dir (Printf.sprintf "trace-%s-%d.json" w seed))
  end;
  List.iter
    (fun (name, _, v) -> check (Printf.sprintf "metric %s is finite" name) (Float.is_finite v))
    metrics;
  let correct = report_violations () in
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n%!" correct
    attempted failed (json_metrics metrics);
  exit (if correct then 0 else 1)
