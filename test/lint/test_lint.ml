(* The lint layer's output contract: every crafted bad deck under
   decks/lint/ is flagged with its registry code, the structural-rank
   check predicts the sparse LU's singular verdict with zero false
   negatives, shipped good decks stay clean, and lint-clean random
   circuits never hit a singular factorization. *)

module D = Lint.Diagnostic

(* `dune runtest` runs in the test's build directory (decks two levels
   up); `dune exec` runs from the workspace root *)
let deck_path name =
  let candidates =
    [ Filename.concat "../../decks" name; Filename.concat "decks" name ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some path -> path
  | None -> Alcotest.failf "deck %s not found" name

let lint_sp name =
  let path = deck_path name in
  match Circuit.Parser.parse_file path with
  | deck -> Lint.check_circuit deck.Circuit.Parser.circuit
  | exception Circuit.Parser.Parse_error (line, msg) -> (
    match Lint.diagnostic_of_parse_error ~line msg with
    | Some d -> [ d ]
    | None -> Alcotest.failf "%s: unexpected parse error: %s" name msg)

let lint_sta name =
  Lint.check_design (Sta.Design_file.parse_file (deck_path name))

let ids diags = List.map (fun d -> D.id d.D.code) diags

let check_codes name diags expected =
  List.iter
    (fun code ->
      Alcotest.(check bool)
        (Printf.sprintf "%s reports %s" name code)
        true
        (List.mem code (ids diags)))
    expected

(* --- every crafted deck flags its registry code -------------------- *)

(* (deck, expected codes, gate fails plainly, gate fails under strict) *)
let sp_cases =
  [ ("lint/nonpositive.sp", [ "AWE-E001" ], true, true);
    ("lint/shorted_vsrc.sp", [ "AWE-E002"; "AWE-E007" ], true, true);
    ("lint/float_nocap.sp", [ "AWE-E003"; "AWE-E007" ], true, true);
    ("lint/float_cap.sp", [ "AWE-I001" ], false, false);
    ("lint/isrc_cutset.sp", [ "AWE-E004" ], true, true);
    ("lint/ind_loop.sp", [ "AWE-E005"; "AWE-E007" ], true, true);
    ("lint/vsrc_loop.sp", [ "AWE-E006"; "AWE-E007" ], true, true);
    ("lint/shorted_r.sp", [ "AWE-W001" ], false, true);
    ("lint/dangling.sp", [ "AWE-W002" ], false, true);
    ("lint/scale_spread.sp", [ "AWE-W003" ], false, true);
    (* the structural estimate and the post-assembly verdict agree *)
    ("lint/w201_spread.sp", [ "AWE-W201"; "AWE-W003" ], false, true);
    ("lint/w202_underdamped.sp", [ "AWE-W202" ], false, true);
    (* 7 decades of taus but only ~6 decades of spread: escalation
       without a conditioning complaint *)
    ("lint/w203_escalation.sp", [ "AWE-W203"; "AWE-I201" ], false, true);
    ("lint/i201_chain.sp", [ "AWE-I201" ], false, false);
    ("lint/i202_star.sp", [ "AWE-I202" ], false, false);
    ("lint/i203_parallel.sp", [ "AWE-I203" ], false, false) ]

let sta_cases =
  [ ("lint/unknown_net.sta", [ "AWE-E101" ], true, true);
    ("lint/undriven.sta", [ "AWE-E102" ], true, true);
    ("lint/sink_unattached.sta", [ "AWE-E103" ], true, true);
    ("lint/sink_unreachable.sta", [ "AWE-E104" ], true, true);
    ("lint/cycle.sta", [ "AWE-E105" ], true, true);
    (* the orphan net also trips E102; E106 blames the constraint *)
    ("lint/constraint_target.sta", [ "AWE-E106"; "AWE-E102" ], true, true);
    ("lint/multi_driver.sta", [ "AWE-E107" ], true, true);
    ("lint/w131_unconstrained.sta", [ "AWE-W131" ], false, true);
    ("lint/w132_dominated.sta", [ "AWE-W132" ], false, true);
    ("lint/w133_uncovered.sta", [ "AWE-W133" ], false, true) ]

let test_crafted_sp () =
  List.iter
    (fun (name, codes, fails, fails_strict) ->
      let diags = lint_sp name in
      check_codes name diags codes;
      Alcotest.(check bool)
        (name ^ " gate")
        fails
        (Lint.gate ~strict:false diags = Ok () |> not);
      Alcotest.(check bool)
        (name ^ " gate --strict")
        fails_strict
        (Lint.gate ~strict:true diags = Ok () |> not))
    sp_cases

let test_crafted_sta () =
  List.iter
    (fun (name, codes, fails, fails_strict) ->
      let diags = lint_sta name in
      check_codes name diags codes;
      Alcotest.(check bool)
        (name ^ " gate")
        fails
        (Lint.gate ~strict:false diags = Ok () |> not);
      Alcotest.(check bool)
        (name ^ " gate --strict")
        fails_strict
        (Lint.gate ~strict:true diags = Ok () |> not))
    sta_cases

(* constraint targets that CAN bind an arrival must not trip E106: a
   gate-driven net, and a primary input (externally driven).  The
   crafted deck's two dead constraints are the only E106s it emits. *)
let test_constraint_lint_negative () =
  let base =
    "cell inv 100 1f 10p\ngate g1 inv out in\nnet in drv g1 100 1f\n\
     net out drv x 100 1f\ninput in\noutput out\n"
  in
  let e106 src =
    List.filter
      (fun d -> d.D.code = D.Constraint_target)
      (Lint.check_design (Sta.Design_file.parse_string src))
  in
  Alcotest.(check int) "constraint on a driven net is clean" 0
    (List.length (e106 (base ^ "constraint out 1n\n")));
  Alcotest.(check int) "constraint on a primary input is clean" 0
    (List.length (e106 (base ^ "constraint in 1n\n")));
  Alcotest.(check int) "clock alone never trips E106" 0
    (List.length (e106 (base ^ "clock 2n\n")));
  let diags = lint_sta "lint/constraint_target.sta" in
  Alcotest.(check int) "one E106 per dead constraint" 2
    (List.length (List.filter (fun d -> d.D.code = D.Constraint_target) diags));
  (* each diagnostic names its net *)
  List.iter
    (fun net ->
      Alcotest.(check bool)
        (Printf.sprintf "E106 names %s" net)
        true
        (List.exists
           (fun d -> d.D.code = D.Constraint_target && d.D.nodes = [ net ])
           diags))
    [ "ghost"; "orphan" ]

(* --- the structural-rank check predicts Slu.factor ----------------- *)

(* decks whose singularity is visible in the sparsity pattern itself:
   the matching check must claim them (no false negatives), the
   augmented pattern must have deficient structural rank, and the
   sparse LU must actually fail on it *)
let structural_decks =
  [ "lint/shorted_vsrc.sp"; "lint/float_nocap.sp"; "lint/ind_loop.sp";
    "lint/vsrc_loop.sp" ]

let test_structural_rank_predicts () =
  List.iter
    (fun name ->
      let deck = Circuit.Parser.parse_file (deck_path name) in
      let sys = Circuit.Mna.build deck.Circuit.Parser.circuit in
      let pat = Sparse.Csr.of_dense (Circuit.Mna.augmented_g sys) in
      Alcotest.(check bool)
        (name ^ " structurally singular")
        true
        (Sparse.Matching.structurally_singular pat);
      (* the prediction comes true: both LU paths refuse the system *)
      (match Circuit.Mna.dc_factor sys with
      | _ -> Alcotest.failf "%s: dense dc_factor succeeded" name
      | exception Circuit.Mna.Singular_dc _ -> ());
      (match Circuit.Mna.dc_factor ~sparse:true sys with
      | _ -> Alcotest.failf "%s: sparse dc_factor succeeded" name
      | exception Circuit.Mna.Singular_dc _ -> ());
      (* and lint reported it under the registry code *)
      check_codes name (lint_sp name) [ "AWE-E007" ])
    structural_decks

(* every crafted deck that fails to factor (or build) must carry at
   least one lint error: the gate has zero false negatives over the
   whole bad-deck corpus, not just the structural subset *)
let test_no_false_negatives () =
  List.iter
    (fun (name, _, _, _) ->
      match Circuit.Parser.parse_file (deck_path name) with
      | exception Circuit.Parser.Parse_error _ -> ()
      | deck ->
        let circuit = deck.Circuit.Parser.circuit in
        let solve_fails =
          match Circuit.Mna.build circuit with
          | exception Invalid_argument _ -> true
          | sys -> (
            match Circuit.Mna.dc_factor sys with
            | _ -> false
            | exception Circuit.Mna.Singular_dc _ -> true)
        in
        if solve_fails then
          Alcotest.(check bool)
            (name ^ " failing solve is lint-visible")
            true
            (Lint.errors (lint_sp name) <> []))
    sp_cases

(* --- shipped good decks stay clean --------------------------------- *)

let good_sp =
  [ "fig4.sp"; "fig9.sp"; "fig16.sp"; "fig22.sp"; "fig25.sp";
    "charge_share.sp"; "coupled_lines.sp"; "regress_est_blindspot.sp" ]

let test_good_decks_clean () =
  List.iter
    (fun name ->
      Alcotest.(check (list string))
        (name ^ " has no lint errors")
        []
        (ids (Lint.errors (lint_sp name))))
    good_sp;
  Alcotest.(check (list string))
    "adder_stage.sta has no lint errors" []
    (ids (Lint.errors (lint_sta "adder_stage.sta")))

(* --- line attribution ---------------------------------------------- *)

let test_line_numbers () =
  let deck =
    Circuit.Parser.parse_string
      "v1 1 0 dc 1\nr1 1 2 1k\nc1 2 0 1p\n\nr2 2 3 1k\n.awe v(2)\n.end\n"
  in
  let c = deck.Circuit.Parser.circuit in
  Alcotest.(check (option int)) "v1 on line 1" (Some 1)
    (Circuit.Netlist.element_line c 0);
  Alcotest.(check (option int)) "r2 on line 5" (Some 5)
    (Circuit.Netlist.element_line c 3);
  Alcotest.(check (option int)) "out of range" None
    (Circuit.Netlist.element_line c 99);
  (* the dangling-node diagnostic points at r2's defining line *)
  let diags = Lint.check_circuit c in
  match
    List.find_opt (fun d -> d.D.code = D.Dangling_node) diags
  with
  | Some d -> Alcotest.(check (option int)) "W002 line" (Some 5) d.D.line
  | None -> Alcotest.fail "expected a dangling-node diagnostic"

(* --- registry sanity ----------------------------------------------- *)

let test_registry () =
  let all_ids = List.map D.id D.all_codes in
  Alcotest.(check int)
    "ids unique"
    (List.length all_ids)
    (List.length (List.sort_uniq compare all_ids));
  List.iter
    (fun code ->
      let id = D.id code in
      let expected_sev =
        match id.[4] with
        | 'E' -> D.Error
        | 'W' -> D.Warning
        | _ -> D.Info
      in
      Alcotest.(check bool)
        (id ^ " severity matches prefix")
        true
        (D.default_severity code = expected_sev))
    D.all_codes;
  let d =
    D.make ~element:"r1" ~nodes:[ "a"; "b" ] ~line:3 ~hint:"fix \"it\""
      D.Nonpositive_value "value is \"bad\""
  in
  let json = D.to_json d in
  let contains needle =
    let nl = String.length needle and jl = String.length json in
    let rec go i =
      i + nl <= jl && (String.sub json i nl = needle || go (i + 1))
    in
    go 0
  in
  List.iter
    (fun frag ->
      Alcotest.(check bool)
        (Printf.sprintf "json has %s" frag)
        true (contains frag))
    [ "\"AWE-E001\""; "\\\"bad\\\""; "\"line\": 3" ];
  Alcotest.(check bool)
    "strict promotes warnings" true
    (D.effective_severity ~strict:true
       (D.make D.Shorted_element "x")
    = D.Error);
  Alcotest.(check bool)
    "strict leaves info alone" true
    (D.effective_severity ~strict:true (D.make D.Float_group "x") = D.Info)

(* --- the structural health estimate agrees with the assembled one -- *)

let all_sp_decks = good_sp @ List.map (fun (n, _, _, _) -> n) sp_cases

(* W201 predicts eq. 47 conditioning trouble from structural Elmore
   bounds alone; W003 measures it on the assembled MNA diagonals.  On
   the whole deck corpus the two verdicts must coincide — the bound is
   loose in absolute value but tight in decades *)
let test_w201_agrees_w003 () =
  List.iter
    (fun name ->
      match Circuit.Parser.parse_file (deck_path name) with
      | exception Circuit.Parser.Parse_error _ -> ()
      | deck ->
        let codes = ids (Lint.check_circuit deck.Circuit.Parser.circuit) in
        Alcotest.(check bool)
          (name ^ ": W201 iff W003")
          (List.mem "AWE-W003" codes)
          (List.mem "AWE-W201" codes))
    all_sp_decks

(* --- differential: refactored checks == legacy implementations ----- *)

let circuit_identical c =
  D.list_to_json (Lint.check_circuit_core c)
  = D.list_to_json (Legacy_lint.check_circuit c)

let design_identical d =
  D.list_to_json (Lint.check_design_core d)
  = D.list_to_json (Legacy_lint.check_design d)

(* parsed designs now carry constraint-card lines on E106 (the one
   intentional divergence from legacy); mask lines before comparing *)
let design_identical_mod_lines d =
  let strip ds = List.map (fun x -> { x with D.line = None }) ds in
  D.list_to_json (strip (Lint.check_design_core d))
  = D.list_to_json (strip (Legacy_lint.check_design d))

let qcheck_differential_circuit =
  QCheck2.Test.make
    ~name:"circuit checks byte-identical to legacy (random circuits)"
    ~count:150 ~print:string_of_int
    QCheck2.Gen.(0 -- 1_000_000)
    (fun seed ->
      circuit_identical (Verify.Cases.random_case ~seed).Verify.Cases.circuit)

(* small randomly-defective designs, built programmatically (so no
   source lines exist and the comparison is byte-exact): random gate
   wiring that freely produces cycles, dropped net cards, duplicate
   and island segments, ghost constraints — every E10x path *)
let random_defective_design seed =
  let st = Random.State.make [| 0x5741; seed |] in
  let d = Sta.create () in
  let inv =
    Sta.cell ~name:"inv" ~drive_res:100. ~input_cap:1e-15 ~intrinsic:1e-11
  in
  let n_gates = 2 + Random.State.int st 6 in
  let n_nets = n_gates + 2 in
  let net i = Printf.sprintf "n%d" i in
  let rand_net () = net (Random.State.int st n_nets) in
  let pin () = Printf.sprintf "g%d" (Random.State.int st n_gates) in
  for i = 0 to n_gates - 1 do
    let ins = List.init (1 + Random.State.int st 2) (fun _ -> rand_net ()) in
    Sta.add_gate d
      ~inst:(Printf.sprintf "g%d" i)
      ~cell:inv ~inputs:ins ~output:(net i)
  done;
  for i = 0 to n_nets - 1 do
    if Random.State.int st 6 > 0 then begin
      let seg seg_from seg_to res cap = { Sta.seg_from; seg_to; res; cap } in
      let segs = ref [ seg "drv" (pin ()) 100. 1e-14 ] in
      if Random.State.bool st then
        segs := seg "drv" (pin ()) 150. 2e-14 :: !segs;
      if Random.State.int st 4 = 0 then
        segs := seg "islA" "islB" 50. 5e-15 :: !segs;
      Sta.add_net d ~name:(net i) ~segments:(List.rev !segs)
    end
  done;
  if Random.State.bool st then Sta.add_primary_input d ~net:(net n_gates) ();
  if Random.State.bool st then
    Sta.add_primary_input d ~net:(net (n_gates + 1)) ();
  if Random.State.bool st then Sta.add_primary_output d ~net:(net 0);
  if Random.State.int st 3 = 0 then
    Sta.add_constraint d ~net:"ghost" ~required:1e-9;
  if Random.State.int st 3 = 0 then
    Sta.add_constraint d ~net:(rand_net ()) ~required:2e-9;
  if Random.State.int st 3 = 0 then Sta.set_clock d ~period:5e-9;
  d

let qcheck_differential_design =
  QCheck2.Test.make
    ~name:"design checks byte-identical to legacy (random designs)"
    ~count:300 ~print:string_of_int
    QCheck2.Gen.(0 -- 1_000_000)
    (fun seed ->
      match random_defective_design seed with
      | exception Sta.Malformed _ -> true (* builder refused: no claim *)
      | d -> design_identical d)

let test_differential_fixed () =
  (* the deck corpus, deterministically *)
  List.iter
    (fun name ->
      match Circuit.Parser.parse_file (deck_path name) with
      | exception Circuit.Parser.Parse_error _ -> ()
      | deck ->
        Alcotest.(check bool)
          (name ^ " identical to legacy")
          true
          (circuit_identical deck.Circuit.Parser.circuit))
    all_sp_decks;
  List.iter
    (fun (name, _, _, _) ->
      Alcotest.(check bool)
        (name ^ " identical to legacy (mod E106 lines)")
        true
        (design_identical_mod_lines
           (Sta.Design_file.parse_file (deck_path name))))
    sta_cases;
  (* synthetic designs at a less toy-like scale *)
  List.iter
    (fun (label, d) ->
      Alcotest.(check bool) (label ^ " identical to legacy") true
        (design_identical d))
    [ ("synth grid 6x6", Sta.Synth.grid ~rows:6 ~cols:6 ());
      ("synth clock_tree", Sta.Synth.clock_tree ~levels:3 ~fanout:3 ());
      ( "synth buffered_mesh",
        Sta.Synth.buffered_mesh ~seed:7 ~rows:5 ~cols:5 () ) ]

(* --- the dataflow engine ------------------------------------------- *)

let test_dataflow () =
  let module Df = Lint.Dataflow in
  let module B = Df.Make (Df.Bool_or) in
  (* a diamond with a back edge: 0 -> 1 <-> 2, 1 -> 3 *)
  let g = Df.of_edges ~nodes:4 [ (0, 1); (1, 2); (2, 1); (1, 3) ] in
  let fwd =
    B.solve g ~init:(fun i -> i = 0) ~edge:(fun ~from:_ ~into:_ v -> v)
  in
  Alcotest.(check (list bool))
    "forward reachability from 0"
    [ true; true; true; true ]
    (Array.to_list fwd);
  let bwd =
    B.solve ~direction:Df.Backward g
      ~init:(fun i -> i = 3)
      ~edge:(fun ~from:_ ~into:_ v -> v)
  in
  Alcotest.(check (list bool))
    "backward reachability to 3"
    [ true; true; true; true ]
    (Array.to_list bwd);
  let isolated =
    B.solve g ~init:(fun i -> i = 3) ~edge:(fun ~from:_ ~into:_ v -> v)
  in
  Alcotest.(check (list bool))
    "nothing reachable from the sink"
    [ false; false; false; true ]
    (Array.to_list isolated);
  (* min-plus shortest paths on an undirected triangle *)
  let module M = Df.Make (Df.Min_float) in
  let gu = Df.undirected ~nodes:3 [ (0, 1); (1, 2) ] in
  let dist =
    M.solve gu
      ~init:(fun i -> if i = 0 then 0. else infinity)
      ~edge:(fun ~from:_ ~into:_ v -> v +. 1.)
  in
  Alcotest.(check (float 1e-12)) "two hops" 2. dist.(2);
  (* the general fixpoint: all-preds-ready AND, seeded at 0 — the
     cycle 1 <-> 2 must stay unready *)
  let and_ready =
    B.fixpoint ~direction:Df.Forward g
      ~init:(fun i -> i = 0)
      ~transfer:(fun i ~get ->
        i = 0
        || Array.length g.Df.preds.(i) > 0
           && Array.for_all get g.Df.preds.(i))
  in
  Alcotest.(check (list bool))
    "conjunctive readiness stalls on the cycle"
    [ true; false; false; false ]
    (Array.to_list and_ready);
  Df.reset_work ();
  ignore (B.solve g ~init:(fun _ -> false) ~edge:(fun ~from:_ ~into:_ v -> v));
  Alcotest.(check bool) "transfers are counted" true (Df.work () > 0)

(* --- output normalization: stable sort + identity dedup ------------ *)

let test_normalize () =
  let a = D.make ~line:5 D.Nonpositive_value "x" in
  let b = D.make ~line:2 D.Undriven_net "y" in
  let c = D.make ~line:2 D.Unknown_net "z" in
  Alcotest.(check int) "dedup collapses identical findings" 1
    (List.length (Lint.dedup [ a; a; a ]));
  Alcotest.(check int) "dedup keeps distinct messages" 2
    (List.length
       (Lint.dedup [ D.make D.Structural_rank "m1"; D.make D.Structural_rank "m2" ]));
  Alcotest.(check (list string))
    "sorted by (line, code)"
    [ "AWE-E101"; "AWE-E102"; "AWE-E001" ]
    (ids (Lint.normalize [ a; c; b; a ]));
  (* normalization is idempotent *)
  let once = Lint.normalize [ a; c; b; a ] in
  Alcotest.(check bool) "idempotent" true (Lint.normalize once = once)

(* --- SARIF output -------------------------------------------------- *)

(* a minimal JSON reader: enough to structurally validate the report
   against the SARIF 2.1.0 required-property set (the toolchain has
   no JSON dependency, and well-formedness is half the point) *)
module Json = struct
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  exception Bad of string

  let parse (s : string) : t =
    let n = String.length s in
    let pos = ref 0 in
    let peek () = if !pos < n then s.[!pos] else '\000' in
    let skip_ws () =
      while
        !pos < n
        && match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
      do
        incr pos
      done
    in
    let expect c =
      if peek () = c then incr pos
      else raise (Bad (Printf.sprintf "expected %c at %d" c !pos))
    in
    let lit w v =
      let l = String.length w in
      if !pos + l <= n && String.sub s !pos l = w then begin
        pos := !pos + l;
        v
      end
      else raise (Bad "literal")
    in
    let num () =
      let start = !pos in
      while
        !pos < n
        &&
        match s.[!pos] with
        | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
        | _ -> false
      do
        incr pos
      done;
      match float_of_string_opt (String.sub s start (!pos - start)) with
      | Some f -> Num f
      | None -> raise (Bad "number")
    in
    let str () =
      expect '"';
      let b = Buffer.create 16 in
      let rec go () =
        if !pos >= n then raise (Bad "eof in string");
        match s.[!pos] with
        | '"' -> incr pos
        | '\\' ->
          incr pos;
          (match s.[!pos] with
          | 'n' -> Buffer.add_char b '\n'
          | 't' -> Buffer.add_char b '\t'
          | 'r' -> Buffer.add_char b '\r'
          | 'b' -> Buffer.add_char b '\b'
          | 'f' -> Buffer.add_char b '\012'
          | 'u' ->
            Buffer.add_string b (String.sub s (!pos - 1) 6);
            pos := !pos + 4
          | c -> Buffer.add_char b c);
          incr pos;
          go ()
        | c ->
          Buffer.add_char b c;
          incr pos;
          go ()
      in
      go ();
      Buffer.contents b
    in
    let rec value () =
      skip_ws ();
      match peek () with
      | '{' -> obj ()
      | '[' -> arr ()
      | '"' -> Str (str ())
      | 't' -> lit "true" (Bool true)
      | 'f' -> lit "false" (Bool false)
      | 'n' -> lit "null" Null
      | _ -> num ()
    and arr () =
      expect '[';
      skip_ws ();
      if peek () = ']' then begin
        incr pos;
        Arr []
      end
      else
        let rec items acc =
          let v = value () in
          skip_ws ();
          if peek () = ',' then begin
            incr pos;
            items (v :: acc)
          end
          else begin
            expect ']';
            Arr (List.rev (v :: acc))
          end
        in
        items []
    and obj () =
      expect '{';
      skip_ws ();
      if peek () = '}' then begin
        incr pos;
        Obj []
      end
      else
        let rec fields acc =
          skip_ws ();
          let k = str () in
          skip_ws ();
          expect ':';
          let v = value () in
          skip_ws ();
          if peek () = ',' then begin
            incr pos;
            fields ((k, v) :: acc)
          end
          else begin
            expect '}';
            Obj (List.rev ((k, v) :: acc))
          end
        in
        fields []
    in
    let v = value () in
    skip_ws ();
    if !pos <> n then raise (Bad "trailing garbage");
    v

  let field k = function Obj fs -> List.assoc_opt k fs | _ -> None

  let field_exn name k j =
    match field k j with
    | Some v -> v
    | None -> Alcotest.failf "SARIF: missing %s.%s" name k

  let str_exn name = function
    | Str s -> s
    | _ -> Alcotest.failf "SARIF: %s is not a string" name

  let arr_exn name = function
    | Arr l -> l
    | _ -> Alcotest.failf "SARIF: %s is not an array" name
end

let test_sarif () =
  let files =
    [ "lint/scale_spread.sp"; "lint/w132_dominated.sta"; "fig22.sp" ]
  in
  let results =
    List.map
      (fun name ->
        let diags =
          if Filename.check_suffix name ".sta" then lint_sta name
          else lint_sp name
        in
        (deck_path name, Lint.normalize diags))
      files
  in
  let total = List.fold_left (fun k (_, ds) -> k + List.length ds) 0 results in
  Alcotest.(check bool) "fixture produces results" true (total > 0);
  let log = Json.parse (Lint.Sarif.report results) in
  Alcotest.(check string)
    "$schema" Lint.Sarif.schema_uri
    (Json.str_exn "$schema" (Json.field_exn "log" "$schema" log));
  Alcotest.(check string)
    "version" "2.1.0"
    (Json.str_exn "version" (Json.field_exn "log" "version" log));
  let run =
    match Json.arr_exn "runs" (Json.field_exn "log" "runs" log) with
    | [ r ] -> r
    | rs -> Alcotest.failf "expected 1 run, got %d" (List.length rs)
  in
  let driver =
    Json.field_exn "tool" "driver" (Json.field_exn "run" "tool" run)
  in
  Alcotest.(check string)
    "tool name" Lint.Sarif.tool_name
    (Json.str_exn "name" (Json.field_exn "driver" "name" driver));
  let rules = Json.arr_exn "rules" (Json.field_exn "driver" "rules" driver) in
  Alcotest.(check int)
    "one rule per registry code"
    (List.length D.all_codes)
    (List.length rules);
  let rule_ids =
    List.map
      (fun r -> Json.str_exn "rule.id" (Json.field_exn "rule" "id" r))
      rules
  in
  Alcotest.(check (list string))
    "rule table is the registry, in order"
    (List.map D.id D.all_codes)
    rule_ids;
  let sarif_results =
    Json.arr_exn "results" (Json.field_exn "run" "results" run)
  in
  Alcotest.(check int) "one result per diagnostic" total
    (List.length sarif_results);
  List.iter
    (fun r ->
      let rule_id =
        Json.str_exn "ruleId" (Json.field_exn "result" "ruleId" r)
      in
      (* ruleIndex points back into the rule table *)
      (match Json.field_exn "result" "ruleIndex" r with
      | Json.Num i ->
        Alcotest.(check string)
          "ruleIndex resolves to ruleId" rule_id
          (List.nth rule_ids (int_of_float i))
      | _ -> Alcotest.fail "ruleIndex is not a number");
      (match
         Json.str_exn "level" (Json.field_exn "result" "level" r)
       with
      | "error" | "warning" | "note" -> ()
      | l -> Alcotest.failf "bad level %s" l);
      let msg =
        Json.str_exn "text"
          (Json.field_exn "message" "text"
             (Json.field_exn "result" "message" r))
      in
      Alcotest.(check bool) "message nonempty" true (String.length msg > 0);
      let loc =
        match
          Json.arr_exn "locations" (Json.field_exn "result" "locations" r)
        with
        | [ l ] -> l
        | _ -> Alcotest.fail "expected exactly one location"
      in
      let phys = Json.field_exn "location" "physicalLocation" loc in
      let uri =
        Json.str_exn "uri"
          (Json.field_exn "artifactLocation" "uri"
             (Json.field_exn "physicalLocation" "artifactLocation" phys))
      in
      Alcotest.(check bool) "uri is one of the inputs" true
        (List.exists (fun (f, _) -> f = uri) results);
      match
        Json.field "awesimLint/v1"
          (Json.field_exn "result" "partialFingerprints" r)
      with
      | Some (Json.Str fp) ->
        Alcotest.(check bool) "fingerprint mentions the rule" true
          (String.length fp > String.length rule_id
          && String.sub fp 0 (String.length rule_id) = rule_id)
      | _ -> Alcotest.fail "missing partialFingerprints.awesimLint/v1")
    sarif_results

(* --- baseline files ------------------------------------------------ *)

let test_baseline () =
  let file = deck_path "lint/w201_spread.sp" in
  let ds = Lint.normalize (lint_sp "lint/w201_spread.sp") in
  Alcotest.(check bool) "fixture produces findings" true (ds <> []);
  let tmp = Filename.temp_file "awesim_baseline" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove tmp)
    (fun () ->
      Lint.Baseline.save tmp [ (file, ds) ];
      let b = Lint.Baseline.load tmp in
      Alcotest.(check int) "roundtrip suppresses everything" 0
        (List.length (Lint.Baseline.filter b ~file ds));
      Alcotest.(check int)
        "same findings in another file are not suppressed"
        (List.length ds)
        (List.length (Lint.Baseline.filter b ~file:"other.sp" ds));
      Alcotest.(check int)
        "the empty baseline suppresses nothing"
        (List.length ds)
        (List.length (Lint.Baseline.filter Lint.Baseline.empty ~file ds));
      (* fingerprints ignore lines/messages: a moved finding stays
         suppressed *)
      let moved = List.map (fun d -> { d with D.line = Some 999 }) ds in
      Alcotest.(check int) "line changes don't resurrect findings" 0
        (List.length (Lint.Baseline.filter b ~file moved)))

(* --- source-line attribution of constraint diagnostics ------------- *)

let test_constraint_lines () =
  let find code diags = List.filter (fun d -> d.D.code = code) diags in
  (* constraint_target.sta: `constraint ghost` on line 11, `constraint
     orphan` on line 12 — E106 must blame the cards themselves *)
  let diags = lint_sta "lint/constraint_target.sta" in
  let lines =
    find D.Constraint_target diags
    |> List.map (fun d -> (d.D.nodes, d.D.line))
    |> List.sort compare
  in
  Alcotest.(check bool)
    "E106 carries the constraint cards' lines" true
    (lines = [ ([ "ghost" ], Some 11); ([ "orphan" ], Some 12) ]);
  (match find D.Dominated_constraint (lint_sta "lint/w132_dominated.sta") with
  | [ d ] ->
    Alcotest.(check (option int)) "W132 blames its card" (Some 12) d.D.line
  | _ -> Alcotest.fail "expected exactly one W132");
  match find D.Constraint_unreachable (lint_sta "lint/w133_uncovered.sta") with
  | [ d ] ->
    Alcotest.(check (option int)) "W133 points at the clock card"
      (Some 12) d.D.line
  | _ -> Alcotest.fail "expected exactly one W133"

(* --- reduce advisories vs the rewriter ----------------------------- *)

(* the I2xx advisories and Circuit.Reduce share one detector; on every
   fixture the advisory's claimed node/element savings must equal what
   the rewriter actually eliminates when nothing is protected *)
let test_reduce_advice_savings_match () =
  List.iter
    (fun name ->
      let deck = Circuit.Parser.parse_file (deck_path name) in
      let c = deck.Circuit.Parser.circuit in
      let plans = Circuit.Reduce.analyze c in
      let node_savings, element_savings =
        List.fold_left
          (fun (nodes, elts) p ->
            match p with
            | Circuit.Reduce.Chain { members } when List.length members < 2 ->
              (nodes, elts)
            | Circuit.Reduce.Parallel _ ->
              (nodes, elts + Circuit.Reduce.plan_savings p)
            | p -> (nodes + Circuit.Reduce.plan_savings p, elts))
          (0, 0) plans
      in
      let r = Circuit.Reduce.reduce ~ports:[] c in
      Alcotest.(check int)
        (name ^ ": advisory node savings = actual")
        node_savings r.Circuit.Reduce.report.Circuit.Reduce.nodes_eliminated;
      if element_savings > 0 then
        Alcotest.(check int)
          (name ^ ": advisory element savings = parallel eliminations")
          element_savings
          r.Circuit.Reduce.report.Circuit.Reduce.elements_eliminated)
    [ "lint/i201_chain.sp"; "lint/i202_star.sp"; "lint/i203_parallel.sp" ]

(* lint always sees the netlist as written: running the rewriter first
   must not change a single diagnostic or SARIF byte *)
let test_reduce_lint_purity () =
  List.iter
    (fun name ->
      let path = deck_path name in
      let deck = Circuit.Parser.parse_file path in
      let c = deck.Circuit.Parser.circuit in
      let before = Lint.normalize (Lint.check_circuit c) in
      let sarif_before = Lint.Sarif.report [ (path, before) ] in
      ignore (Circuit.Reduce.reduce ~ports:[] c);
      let after = Lint.normalize (Lint.check_circuit c) in
      Alcotest.(check bool)
        (name ^ ": diagnostics unchanged by reduction")
        true (before = after);
      Alcotest.(check string)
        (name ^ ": SARIF unchanged by reduction")
        sarif_before
        (Lint.Sarif.report [ (path, after) ]);
      (* and the advisories are still present: the rewriter consumed a
         copy, not the netlist lint reports on *)
      Alcotest.(check bool)
        (name ^ ": advisory still fires")
        true
        (List.exists
           (fun d ->
             match d.D.code with
             | D.Series_chain | D.Star_reduce | D.Parallel_merge -> true
             | _ -> false)
           after))
    [ "lint/i201_chain.sp"; "lint/i202_star.sp"; "lint/i203_parallel.sp" ]

(* --- lint-clean random circuits never hit a singular solve --------- *)

let qcheck_lint_clean_factors =
  QCheck2.Test.make
    ~name:"lint-clean random circuits factor (dense and sparse)" ~count:120
    ~print:string_of_int
    QCheck2.Gen.(0 -- 1_000_000)
    (fun seed ->
      let circuit, _ =
        match seed mod 3 with
        | 0 -> Circuit.Samples.random_rc_tree ~seed ~n:(2 + (seed mod 9)) ()
        | 1 ->
          Circuit.Samples.random_coupled_tree ~seed
            ~n:(3 + (seed mod 7))
            ~couplings:(1 + (seed mod 3))
            ()
        | _ ->
          Circuit.Samples.random_rc_mesh ~seed
            ~n:(3 + (seed mod 7))
            ~extra:(1 + (seed mod 3))
            ()
      in
      match Lint.errors (Lint.check_circuit circuit) with
      | _ :: _ -> true (* lint objects: no promise to keep *)
      | [] ->
        let sys = Circuit.Mna.build circuit in
        ignore (Circuit.Mna.dc_factor sys);
        ignore (Circuit.Mna.dc_factor ~sparse:true sys);
        true)

let () =
  Alcotest.run "lint"
    [ ( "crafted decks",
        [ Alcotest.test_case "sp codes and gates" `Quick test_crafted_sp;
          Alcotest.test_case "sta codes and gates" `Quick test_crafted_sta;
          Alcotest.test_case "constraint targets (E106 negatives)" `Quick
            test_constraint_lint_negative ] );
      ( "singularity prediction",
        [ Alcotest.test_case "structural rank predicts Slu" `Quick
            test_structural_rank_predicts;
          Alcotest.test_case "no false negatives" `Quick
            test_no_false_negatives ] );
      ( "good decks",
        [ Alcotest.test_case "shipped decks stay clean" `Quick
            test_good_decks_clean ] );
      ( "provenance",
        [ Alcotest.test_case "line attribution" `Quick test_line_numbers;
          Alcotest.test_case "constraint-card lines" `Quick
            test_constraint_lines;
          Alcotest.test_case "registry" `Quick test_registry ] );
      ( "numerical health",
        [ Alcotest.test_case "W201 agrees with W003" `Quick
            test_w201_agrees_w003 ] );
      ( "dataflow engine",
        [ Alcotest.test_case "fixpoints" `Quick test_dataflow ] );
      ( "reduce advisories",
        [ Alcotest.test_case "savings match the rewriter" `Quick
            test_reduce_advice_savings_match;
          Alcotest.test_case "reduction never touches lint output" `Quick
            test_reduce_lint_purity ] );
      ( "output",
        [ Alcotest.test_case "normalize" `Quick test_normalize;
          Alcotest.test_case "SARIF 2.1.0 structure" `Quick test_sarif;
          Alcotest.test_case "baseline roundtrip" `Quick test_baseline ] );
      ( "differential vs legacy",
        Alcotest.test_case "deck corpus and synth designs" `Quick
          test_differential_fixed
        :: List.map QCheck_alcotest.to_alcotest
             [ qcheck_differential_circuit; qcheck_differential_design ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ qcheck_lint_clean_factors ] )
    ]
