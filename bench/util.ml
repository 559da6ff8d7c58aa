(* Shared helpers for the reproduction benchmarks. *)

open Circuit

(* exact natural frequencies of a circuit: eigenvalues of -G^-1 C *)
let actual_poles sys =
  let g = Mna.g sys and c = Mna.c sys in
  let f = Linalg.Lu.factor g in
  let n = Mna.size sys in
  let m = Linalg.Matrix.create n n in
  for j = 0 to n - 1 do
    let col = Linalg.Lu.solve f (Linalg.Matrix.col c j) in
    for i = 0 to n - 1 do
      m.(i).(j) <- -.col.(i)
    done
  done;
  Linalg.Eigen.circuit_poles m

(* the paper's error measure: L2 difference of the waveforms normalized
   by the L2 norm of the exact waveform's transient part *)
let transient_error exact approx =
  let vf = Waveform.final_value exact in
  let transient =
    Waveform.create exact.Waveform.times
      (Array.map (fun v -> v -. vf) exact.Waveform.values)
  in
  let den = Waveform.l2_norm transient in
  if den = 0. then 0. else Waveform.l2_error exact approx /. den

let simulate sys node ~t_stop ~steps =
  let r = Transim.Transient.simulate sys ~t_stop ~steps in
  Transim.Transient.node_waveform r node

let pp_pole ppf (p : Linalg.Cx.t) =
  if p.Linalg.Cx.im = 0. then Format.fprintf ppf "%12.4e            " p.Linalg.Cx.re
  else Format.fprintf ppf "%12.4e %+.4ej" p.Linalg.Cx.re p.Linalg.Cx.im

let print_pole_table ~title columns =
  (* columns: (header, pole list) list; rows padded with blanks *)
  Format.printf "%s@." title;
  let depth =
    List.fold_left (fun m (_, ps) -> Stdlib.max m (List.length ps)) 0 columns
  in
  Format.printf "  ";
  List.iter (fun (h, _) -> Format.printf "%-28s" h) columns;
  Format.printf "@.";
  for row = 0 to depth - 1 do
    Format.printf "  ";
    List.iter
      (fun (_, ps) ->
        match List.nth_opt ps row with
        | Some p -> Format.printf "%-28s" (Format.asprintf "%a" pp_pole p)
        | None -> Format.printf "%-28s" "")
      columns;
    Format.printf "@."
  done

let section title =
  Format.printf "@.=== %s ===@." title

let claim ~paper fmt =
  Format.printf "  paper:    %s@." paper;
  Format.printf ("  measured: " ^^ fmt ^^ "@.")

let note fmt = Format.printf ("  " ^^ fmt ^^ "@.")

let plot ?(width = 68) ?(height = 14) ~label waves =
  print_string (Waveform.ascii_plot ~width ~height ~label waves)

(* Warm-up + median-of-[reps] wall-clock timing.  One untimed warm-up
   run pages in code and fills allocator arenas, then [reps] timed
   runs; single-shot (and best-of-N) numbers on a shared CI container
   are noise, so the summary keeps the whole spread.  Returns the
   summary and the result of the last timed run (for determinism
   checks on the value the timings belong to). *)
type run_time = {
  t_min : float;
  t_med : float;  (* the headline number *)
  t_max : float;
}

let timed_runs ?(reps = 5) f =
  let last = ref (f ()) (* warm-up *) in
  let samples =
    Array.init reps (fun _ ->
        let t0 = Unix.gettimeofday () in
        let r = f () in
        last := r;
        Unix.gettimeofday () -. t0)
  in
  Array.sort compare samples;
  ( { t_min = samples.(0);
      t_med = samples.(reps / 2);
      t_max = samples.(reps - 1) },
    !last )

(* Bechamel wrapper: nanoseconds per run for each named thunk *)
let measure_ns tests =
  let open Bechamel in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:true ()
  in
  let grouped =
    Test.make_grouped ~name:"bench" ~fmt:"%s %s"
      (List.map
         (fun (name, f) -> Test.make ~name (Staged.stage f))
         tests)
  in
  let raw = Benchmark.all cfg [ instance ] grouped in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols instance raw in
  List.map
    (fun (name, _) ->
      let key = "bench " ^ name in
      match Hashtbl.find_opt results key with
      | Some o -> (
        match Analyze.OLS.estimates o with
        | Some (est :: _) -> (name, est)
        | Some [] | None -> (name, nan))
      | None -> (name, nan))
    tests

(* ------------------------------------------------------------------ *)
(* The scenario harness: results as JSON, one failure rule, the report
   predicates, the jobs sweep, and the scenario table's runner. *)

(* A number carries its printed form, so each keeps the precision its
   scenario writes it with; a non-finite one is [Null], since strict
   JSON has no spelling for it. *)
type json =
  | Null
  | Bool of bool
  | Int of int
  | Num of string
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

let num fmt x = if Float.is_finite x then Num (Printf.sprintf fmt x) else Null

(* a timing summary as [min, median, max] milliseconds *)
let ms_spread t =
  Arr (List.map (fun s -> num "%.3f" (1e3 *. s)) [ t.t_min; t.t_med; t.t_max ])

let by_jobs f results =
  Obj (List.map (fun (j, x) -> (string_of_int j, f x)) results)

(* The top level, and every object that holds an object, put one field
   per line; other values print on one line. *)
let rec render indent = function
  | Null -> "null"
  | Bool b -> string_of_bool b
  | Int n -> string_of_int n
  | Num s -> s
  | Str s -> "\"" ^ Lint.Diagnostic.json_escape s ^ "\""
  | Arr items -> "[" ^ String.concat ", " (List.map (render indent) items) ^ "]"
  | Obj fields ->
    let inner = indent ^ "  " in
    let nested = List.exists (function _, Obj _ -> true | _ -> false) fields in
    let field (k, v) = render inner (Str k) ^ ": " ^ render inner v in
    let fields = List.map field fields in
    if indent <> "" && not nested then "{ " ^ String.concat ", " fields ^ " }"
    else
      "{\n" ^ inner ^ String.concat (",\n" ^ inner) fields ^ "\n" ^ indent ^ "}"

(* Writes BENCH_<name>.json.  A gated scenario passes [smoke], which
   the file records beside the core count its timings ran on. *)
let write_bench ?smoke name fields =
  let head =
    match smoke with
    | Some s -> [ ("smoke", Bool s); ("cores", Int (Parallel.default_jobs ())) ]
    | None -> []
  in
  let path = "BENCH_" ^ name ^ ".json" in
  let oc = open_out path in
  output_string oc
    (render "" (Obj ((("scenario", Str name) :: head) @ fields)));
  output_char oc '\n';
  close_out oc;
  note "wrote %s" path

(* Every failed gate or identity prints as it happens and is counted;
   the runner exits 1 once every requested scenario has written its
   file, so one failure never hides another. *)
let failures = ref 0

let check what ok =
  if not ok then begin
    note "FAIL: %s" what;
    incr failures
  end;
  ok

(* Every result field of two reports; the counters are compared by the
   two predicates below, and the phase timers, which are measured, not
   counted, by none. *)
let reports_identical (a : Sta.report) (b : Sta.report) =
  { a with Sta.stats = Awe.Stats.zero } = { b with Sta.stats = Awe.Stats.zero }

let work_identical (a : Sta.report) (b : Sta.report) =
  let work (s : Awe.Stats.snapshot) =
    Awe.Stats.
      ( s.factorizations, s.moment_solves, s.fits, s.fit_retries,
        s.order_escalations, s.mna_builds )
  in
  work a.Sta.stats = work b.Sta.stats

(* the cache's verdicts; its bytes are a measured footprint *)
let cache_counters_identical (a : Sta.report) (b : Sta.report) =
  let verdicts (s : Awe.Stats.snapshot) =
    Awe.Stats.(s.cache_exact_hits, s.cache_pattern_hits, s.cache_misses)
  in
  verdicts a.Sta.stats = verdicts b.Sta.stats

(* [timed_runs] of [run j] at each jobs count in [jobs], which starts
   at 1, checking every report against the jobs=1 one: results, work
   counters and cache counters.  Returns the (timing, report) pairs by
   jobs count and whether every check held. *)
let jobs_sweep ~what ~reps jobs run =
  let results =
    List.map (fun j -> (j, timed_runs ~reps (fun () -> run j))) jobs
  in
  let r1 = snd (List.assoc 1 results) in
  let same (j, (_, r)) =
    j = 1
    || check
         (Printf.sprintf "%s jobs=1 vs jobs=%d" what j)
         (reports_identical r1 r && work_identical r1 r
        && cache_counters_identical r1 r)
  in
  (results, List.fold_left (fun ok x -> same x && ok) true results)

(* One table drives the full run (every scenario, in order), [--smoke]
   alone (the gated scenarios, at smoke size) and runs by name or
   alias.  A gated scenario's summary line says whether its checks
   held. *)
type scenario = {
  names : string list;  (* the name, then any aliases *)
  gated : bool;
  run : smoke:bool -> unit;
}

let ungated names f = { names; gated = false; run = (fun ~smoke:_ -> f ()) }

let gated name run = { names = [ name ]; gated = true; run }

let run_scenarios ~title table =
  let args = List.tl (Array.to_list Sys.argv) in
  let smoke = List.mem "--smoke" args in
  let chosen =
    match List.filter (fun a -> a <> "--smoke") args with
    | [] when smoke -> List.filter (fun s -> s.gated) table
    | [] ->
      Format.printf "%s@." title;
      table
    | names ->
      List.map
        (fun name ->
          match List.find_opt (fun s -> List.mem name s.names) table with
          | Some s -> s
          | None ->
            Format.printf "unknown experiment %S; available:@." name;
            List.iter
              (fun s -> List.iter (Format.printf "  %s@.") s.names)
              table;
            exit 2)
        names
  in
  List.iter
    (fun s ->
      let before = !failures in
      s.run ~smoke;
      if s.gated then
        note "%s %s" (List.hd s.names)
          (if !failures = before then "ok"
           else Printf.sprintf "FAILED (%d checks)" (!failures - before)))
    chosen;
  if !failures > 0 then exit 1
