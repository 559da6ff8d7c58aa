(* Differential verification harness — the library root.

   [run] drives the three layers against a seeded configuration:

   1. oracle: random circuits (Cases) checked AWE-vs-simulator
      (Oracle.check), one case per seed in [seed .. seed+count-1];
   2. properties: every metamorphic property in Props.all over
      [prop_count] derived seeds;
   3. fuzzing: both parser fuzzers for [fuzz_count] inputs.

   Failures never raise out of [run]; they accumulate into the report
   so a sweep always completes and reports everything at once.  Fuzz
   failures are additionally written as [repro_*.sp] / [repro_*.sta]
   decks under [repro_dir] when one is configured. *)

module Cases = Cases
module Oracle = Oracle
module Props = Props
module Fuzz = Fuzz

type config = {
  seed : int;
  count : int;  (** oracle cases *)
  prop_count : int;  (** seeds per metamorphic property *)
  fuzz_count : int;  (** fuzz inputs per parser *)
  tol : Oracle.tol;
  repro_dir : string option;  (** where to write shrunk fuzz decks *)
  jobs : int;  (** parallel fan-out across cases/props/fuzzers *)
}

type prop_failure = {
  prop : string;
  prop_seed : int;
  message : string;
}

type report = {
  config : config;
  oracle_run : int;
  oracle_failures : Oracle.outcome list;
  worst_measured : float;  (** largest oracle rel-L2 error observed *)
  worst_case : Cases.case option;
  prop_run : int;
  prop_failures : prop_failure list;
  fuzz_run : int;
  fuzz_failures : Fuzz.failure list;
  repro_files : string list;  (** decks written for fuzz failures *)
}

let passed r =
  r.oracle_failures = [] && r.prop_failures = [] && r.fuzz_failures = []

let write_repros ~dir failures =
  if failures = [] then []
  else begin
    (match Sys.is_directory dir with
    | true -> ()
    | false -> failwith (dir ^ " is not a directory")
    | exception Sys_error _ -> Sys.mkdir dir 0o755);
    List.mapi
      (fun i (f : Fuzz.failure) ->
        let ext =
          match f.Fuzz.parser with
          | ".sta" -> "sta"
          | "serve" -> "serve.txt"  (* a protocol script, not a deck *)
          | _ -> "sp"
        in
        let path = Filename.concat dir (Printf.sprintf "repro_%d.%s" i ext) in
        let oc = open_out path in
        Printf.fprintf oc "* escaping exception: %s\n%s\n" f.Fuzz.exn_text
          f.Fuzz.input;
        close_out oc;
        path)
      failures
  end

let run ?(progress = fun _ -> ()) config =
  Parallel.with_pool ~jobs:config.jobs @@ fun pool ->
  (* Every task is a pure function of (config, index) — each oracle
     case, property run, and fuzzer derives its own RNG from its seed
     — and results fold sequentially in index order, so the report is
     bit-identical for any [jobs]. *)
  (* layer 1: the differential oracle over random circuits, in chunks
     of 50 so the progress cadence survives the fan-out *)
  let oracle_failures = ref [] in
  let worst = ref (neg_infinity, None) in
  let chunk = 50 in
  let i = ref 0 in
  while !i < config.count do
    let base = !i in
    let len = Stdlib.min chunk (config.count - base) in
    let outcomes =
      Parallel.map
        ~label:(fun k -> Printf.sprintf "case %d" (config.seed + base + k))
        pool
        (fun seed ->
          let case = Cases.random_case ~seed in
          (case, Oracle.check ~tol:config.tol case))
        (Array.init len (fun k -> config.seed + base + k))
    in
    Array.iter
      (fun (case, o) ->
        if
          Float.is_finite o.Oracle.measured && o.Oracle.measured > fst !worst
        then worst := (o.Oracle.measured, Some case);
        if not (Oracle.passed o) then oracle_failures := o :: !oracle_failures)
      outcomes;
    i := base + len;
    if !i mod chunk = 0 then
      progress
        (Printf.sprintf "oracle: %d/%d cases, %d failures" !i config.count
           (List.length !oracle_failures))
  done;
  (* layer 2: metamorphic properties, one task per (property, seed) *)
  let prop_tasks =
    Array.of_list
      (List.concat_map
         (fun (name, prop) ->
           List.init config.prop_count (fun j ->
               (name, prop, config.seed + j)))
         Props.all)
  in
  let prop_outcomes =
    Parallel.map
      ~label:(fun k ->
        let name, _, seed = prop_tasks.(k) in
        Printf.sprintf "%s seed %d" name seed)
      pool
      (fun (name, prop, prop_seed) ->
        match prop ~seed:prop_seed with
        | () -> None
        | exception e ->
          Some { prop = name; prop_seed; message = Printexc.to_string e })
      prop_tasks
  in
  let prop_failures = ref [] in
  Array.iter
    (function
      | Some f -> prop_failures := f :: !prop_failures
      | None -> ())
    prop_outcomes;
  let prop_run = ref (Array.length prop_tasks) in
  List.iter
    (fun (name, _) ->
      progress (Printf.sprintf "prop %s: %d seeds" name config.prop_count))
    Props.all;
  (* layer 3: fuzzing — the two parsers and the serve protocol use
     independent generators, so they are three tasks *)
  let fuzzers = [| ".sp"; ".sta"; "serve" |] in
  let fuzz_failures =
    Parallel.map
      ~label:(fun k -> "fuzz " ^ fuzzers.(k))
      pool
      (fun parser ->
        Fuzz.run_parser ~parser ~seed:config.seed ~count:config.fuzz_count)
      fuzzers
    |> Array.to_list |> List.concat
  in
  progress
    (Printf.sprintf "fuzz: %d inputs per fuzzer, %d escapes"
       config.fuzz_count
       (List.length fuzz_failures));
  let repro_files =
    match config.repro_dir with
    | Some dir -> write_repros ~dir fuzz_failures
    | None -> []
  in
  let worst_measured, worst_case = !worst in
  { config;
    oracle_run = config.count;
    oracle_failures = List.rev !oracle_failures;
    worst_measured =
      (if Float.is_finite worst_measured then worst_measured else 0.);
    worst_case;
    prop_run = !prop_run;
    prop_failures = List.rev !prop_failures;
    fuzz_run = 3 * config.fuzz_count;
    fuzz_failures;
    repro_files }

let pp_report ppf r =
  Format.fprintf ppf "@[<v>verification sweep (seed %d)@," r.config.seed;
  Format.fprintf ppf "oracle:     %d cases, %d failures" r.oracle_run
    (List.length r.oracle_failures);
  (match r.worst_case with
  | Some c when r.oracle_failures = [] ->
    Format.fprintf ppf " (worst rel L2 %.4g on %s)" r.worst_measured c.Cases.label
  | _ -> ());
  Format.fprintf ppf "@,properties: %d runs, %d failures" r.prop_run
    (List.length r.prop_failures);
  Format.fprintf ppf "@,fuzzing:    %d inputs, %d escapes" r.fuzz_run
    (List.length r.fuzz_failures);
  List.iter
    (fun o -> Format.fprintf ppf "@,@,%a" Oracle.pp_outcome o)
    r.oracle_failures;
  List.iter
    (fun f ->
      Format.fprintf ppf "@,@,property %s failed at seed %d:@,  %s" f.prop
        f.prop_seed f.message)
    r.prop_failures;
  List.iter
    (fun (f : Fuzz.failure) ->
      Format.fprintf ppf "@,@,%s parser escape: %s@,input:@,%s" f.Fuzz.parser
        f.Fuzz.exn_text f.Fuzz.input)
    r.fuzz_failures;
  List.iter
    (fun p -> Format.fprintf ppf "@,repro deck written: %s" p)
    r.repro_files;
  Format.fprintf ppf "@,%s@]"
    (if passed r then "VERIFY PASS" else "VERIFY FAIL")
