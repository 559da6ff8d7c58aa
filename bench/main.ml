(* Reproduction harness: one experiment per table and figure of the
   paper's evaluation (Sections IV-V), plus the scaling and ablation
   studies called out in DESIGN.md, and the gated STA scenarios.

     dune exec bench/main.exe                 runs everything
     dune exec bench/main.exe -- fig23        runs one experiment
     dune exec bench/main.exe -- --smoke      runs the gated scenarios
                                              at smoke size

   Gated scenarios and verify write BENCH_<name>.json; a failed gate or
   identity check makes the run exit 1 once every requested one has run.

   Absolute element values differ from the (unpublished) originals; the
   quantities compared are the paper's *claims*: who wins, error
   orderings, pole patterns, delay shifts.  See EXPERIMENTS.md. *)

open Circuit
open Util

let step5 = Element.Step { v0 = 0.; v1 = 5. }

(* ------------------------------------------------------------------ *)

let fig7 () =
  section "Fig. 7 — first-order AWE vs exact, Fig. 4 RC tree, 5 V step";
  let f = Samples.fig4 () in
  let sys = Mna.build f.Samples.circuit in
  let a1 = Awe.approximate sys ~node:f.Samples.n4 ~q:1 in
  (match Awe.poles a1 with
  | [ p ] ->
    claim ~paper:"pole = -1/T_D (Elmore)" "%.2f vs -1/7e-4 = -1428.57"
      p.Linalg.Cx.re
  | _ -> ());
  let wex = simulate sys f.Samples.n4 ~t_stop:5e-3 ~steps:4000 in
  let w1 = Awe.waveform a1 ~t_stop:5e-3 ~samples:4001 in
  claim ~paper:"visible single-exponential error"
    "transient L2 error %.1f%%"
    (100. *. transient_error wex w1);
  claim ~paper:"error term 36% at first order" "error estimate %.1f%%"
    (100. *. Awe.error_estimate sys ~node:f.Samples.n4 ~q:1);
  plot ~label:"fig7: AWE q1 (*) vs simulation (+)" [ w1; wex ]

let fig12 () =
  section "Fig. 12 — grounded resistor (Fig. 9), first-order AWE";
  let f = Samples.fig9 () in
  let sys = Mna.build f.Samples.circuit in
  let a1 = Awe.approximate sys ~node:f.Samples.n4 ~q:1 in
  claim ~paper:"steady state scaled by the divider"
    "v(inf) = %.4f V (divider: 5*4/7 = 2.8571)"
    (Awe.steady_state a1);
  claim ~paper:"first moment reflects both G^-1 and v_ss changes"
    "scaled Elmore %.4g s (plain tree T_D was 7e-4)"
    (Awe.Elmore.scaled_delay sys ~node:f.Samples.n4);
  let wex = simulate sys f.Samples.n4 ~t_stop:4e-3 ~steps:4000 in
  let w1 = Awe.waveform a1 ~t_stop:4e-3 ~samples:4001 in
  claim ~paper:"good first-order prediction"
    "transient L2 error %.1f%%"
    (100. *. transient_error wex w1);
  plot ~label:"fig12: AWE q1 (*) vs simulation (+)" [ w1; wex ]

let fig14 () =
  section "Fig. 14 — Fig. 4 tree driven by a 5 V, 1 ms-rise ramp";
  let wave = Element.Ramp { v0 = 0.; v1 = 5.; t_delay = 0.; t_rise = 1e-3 } in
  let f = Samples.fig4 ~wave () in
  let sys = Mna.build f.Samples.circuit in
  let a1 = Awe.approximate sys ~node:f.Samples.n4 ~q:1 in
  (* the paper's eqs. 63-64: v_p = 5e3 t - r*tau, v_h = 3.5 e^(-t/tau) *)
  (match a1.Awe.response with
  | base :: ramp_neg :: _ ->
    claim ~paper:"v_h residue r*tau = 3.5 V (eq. 64)"
      "|residue| = %.4f V"
      (match base.Awe.Approx.transient with
      | [ t ] -> Float.abs t.Awe.Approx.coeffs.(0).Linalg.Cx.re
      | _ -> nan);
    claim ~paper:"negative ramp activates at 1 ms (eq. 66)"
      "t_shift = %.4g s, scale %.3g"
      ramp_neg.Awe.Approx.t_shift ramp_neg.Awe.Approx.scale
  | _ -> ());
  let wex = simulate sys f.Samples.n4 ~t_stop:6e-3 ~steps:6000 in
  let w1 = Awe.waveform a1 ~t_stop:6e-3 ~samples:6001 in
  claim ~paper:"good delay prediction; largest error near t = 0"
    "transient L2 error %.1f%%"
    (100. *. transient_error wex w1);
  let dt = 1e-6 in
  let slope0 = (Awe.eval a1 dt -. Awe.eval a1 0.) /. dt in
  claim ~paper:"approximation starts with a (wrong) negative slope"
    "initial slope %.1f V/s" slope0;
  let a1m =
    Awe.approximate
      ~options:{ Awe.default_options with match_slope = true }
      sys ~node:f.Samples.n4 ~q:1
  in
  let slope0m = (Awe.eval a1m dt -. Awe.eval a1m 0.) /. dt in
  claim ~paper:"matching m_(-2) removes the glitch (Section 4.3)"
    "initial slope with slope matching %.2f V/s" slope0m;
  plot ~label:"fig14: AWE q1 ramp response (*) vs simulation (+)" [ w1; wex ]

let fig15 () =
  section "Fig. 15 — second-order step response, Fig. 4 tree";
  let f = Samples.fig4 () in
  let sys = Mna.build f.Samples.circuit in
  let wex = simulate sys f.Samples.n4 ~t_stop:5e-3 ~steps:4000 in
  let err q =
    let a = Awe.approximate sys ~node:f.Samples.n4 ~q in
    ( transient_error wex (Awe.waveform a ~t_stop:5e-3 ~samples:4001),
      Awe.error_estimate sys ~node:f.Samples.n4 ~q )
  in
  let t1, e1 = err 1 in
  let t2, e2 = err 2 in
  claim ~paper:"error term falls 36% -> 1.6%"
    "estimate %.1f%% -> %.2f%% (vs sim: %.1f%% -> %.2f%%)"
    (100. *. e1) (100. *. e2) (100. *. t1) (100. *. t2);
  let a2 = Awe.approximate sys ~node:f.Samples.n4 ~q:2 in
  claim ~paper:"AWE and SPICE indistinguishable at plot resolution"
    "max abs difference %.4f V"
    (Waveform.max_abs_error wex (Awe.waveform a2 ~t_stop:5e-3 ~samples:4001));
  plot ~label:"fig15: AWE q2 (*) vs simulation (+)"
    [ Awe.waveform a2 ~t_stop:5e-3 ~samples:4001; wex ]

let table1 () =
  section "Table I — approximating vs actual poles, Fig. 16 tree";
  let poles_for ~v_c6 q =
    let f = Samples.fig16 ~v_c6 ~wave:step5 () in
    let sys = Mna.build f.Samples.circuit in
    match Awe.approximate sys ~node:f.Samples.output ~q with
    | a -> Awe.poles a
    | exception (Awe.Unstable_fit _ | Awe.Degenerate _) -> []
  in
  let f = Samples.fig16 ~wave:step5 () in
  let sys = Mna.build f.Samples.circuit in
  let actual = actual_poles sys in
  print_pole_table ~title:"  (output at C7; 5 V step; rad/s)"
    [ ("1st order", poles_for ~v_c6:0. 1);
      ("2nd order", poles_for ~v_c6:0. 2);
      ("1st (vC6=5)", poles_for ~v_c6:5. 1);
      ("2nd (vC6=5)", poles_for ~v_c6:5. 2);
      ("actual", actual) ];
  note "paper: approximate poles 'creep up on' the actual poles as the";
  note "order increases, and the initial condition shifts the fit.";
  (* the zero mechanism of Section 5.2: the model's transfer zero
     reweights the natural frequencies; the IC moves it *)
  let zero_for ~v_c6 =
    let f = Samples.fig16 ~v_c6 ~wave:step5 () in
    let sys = Mna.build f.Samples.circuit in
    match
      Awe.Approx.zeros (Awe.approximate sys ~node:f.Samples.output ~q:2).Awe.base
    with
    | [ z ] -> z
    | _ -> Linalg.Cx.re nan
  in
  claim
    ~paper:"the IC introduces a zero that reweights the poles (S 5.2)"
    "order-2 model zero: %.4e (no IC) vs %.4e (vC6 = 5)"
    (zero_for ~v_c6:0.).Linalg.Cx.re
    (zero_for ~v_c6:5.).Linalg.Cx.re;
  let spread =
    match (actual, List.rev actual) with
    | p1 :: _, pn :: _ -> Linalg.Cx.abs pn /. Linalg.Cx.abs p1
    | _ -> nan
  in
  claim ~paper:"time constants spread over ~4 decades"
    "|p_max|/|p_min| = %.2e" spread

let fig17_18 () =
  section "Figs. 17-18 — Fig. 16 tree, 1 ns ramp: order 1 then order 2";
  let f = Samples.fig16 () in
  let sys = Mna.build f.Samples.circuit in
  let wex = simulate sys f.Samples.output ~t_stop:6e-9 ~steps:6000 in
  let run q =
    let a = Awe.approximate sys ~node:f.Samples.output ~q in
    ( a,
      transient_error wex (Awe.waveform a ~t_stop:6e-9 ~samples:6001),
      Awe.error_estimate sys ~node:f.Samples.output ~q )
  in
  let a1, t1, e1 = run 1 in
  let a2, t2, e2 = run 2 in
  claim ~paper:"first-order error term 4.4%"
    "estimate %.2f%% (vs sim %.2f%%)" (100. *. e1) (100. *. t1);
  claim ~paper:"second-order error term 0.15%"
    "estimate %.3f%% (vs sim %.3f%%)" (100. *. e2) (100. *. t2);
  claim ~paper:"stiff fast poles are never computed unless needed"
    "q1 used 1 pole of a %d-state circuit" (Mna.size sys - 2);
  plot ~label:"fig17: AWE q1 (*) vs simulation (+)"
    [ Awe.waveform a1 ~t_stop:6e-9 ~samples:6001; wex ];
  plot ~label:"fig18: AWE q2 (*) vs simulation (+)"
    [ Awe.waveform a2 ~t_stop:6e-9 ~samples:6001; wex ]

let fig19 () =
  section "Fig. 19 — CPU time: first order vs incremental second order";
  let f = Samples.fig16 () in
  let sys = Mna.build f.Samples.circuit in
  let node = f.Samples.output in
  let out_var = Mna.node_var sys node in
  let op0 = Dc.initial sys in
  let op0p = Dc.at_zero_plus sys op0 in
  let engine = Awe.Moments.make sys in
  let prob = Awe.Moments.base_problem engine op0p in
  let results =
    measure_ns
      [ ( "first-order total",
          fun () ->
            let e = Awe.Moments.make sys in
            let p = Awe.Moments.base_problem e op0p in
            let mu =
              Awe.Moments.mu (Awe.Moments.vectors e p ~count:2) ~out_var
            in
            ignore (Awe.Moment_match.fit ~q:1 mu) );
        ( "second-order total",
          fun () ->
            let e = Awe.Moments.make sys in
            let p = Awe.Moments.base_problem e op0p in
            let mu =
              Awe.Moments.mu (Awe.Moments.vectors e p ~count:4) ~out_var
            in
            ignore (Awe.Moment_match.fit ~q:2 mu) );
        ( "incremental moments only",
          fun () ->
            (* the marginal work: two more A^-1 applications *)
            let w2 = Awe.Moments.advance engine prob.Awe.Moments.x_h0 in
            let w3 = Awe.Moments.advance engine w2 in
            ignore w3 ) ]
  in
  let find k = List.assoc k results in
  let t1 = find "first-order total" in
  let t2 = find "second-order total" in
  let tm = find "incremental moments only" in
  note "first-order approximation:  %8.0f ns/run" t1;
  note "second-order approximation: %8.0f ns/run" t2;
  note "incremental moment cost:    %8.0f ns/run" tm;
  claim ~paper:"second order costs a small increment over first"
    "increment = %.0f%% of the first-order cost"
    (100. *. (t2 -. t1) /. t1)

let fig20_21 () =
  section "Figs. 20-21 — nonmonotone charge-sharing response (vC6 = 5 V)";
  let f = Samples.fig16 ~v_c6:5.0 ~wave:(Element.Dc 0.) () in
  let sys = Mna.build f.Samples.circuit in
  let wex = simulate sys f.Samples.output ~t_stop:5e-9 ~steps:5000 in
  claim ~paper:"response is nonmonotone" "monotone = %b"
    (Waveform.is_monotone wex);
  (match Awe.approximate sys ~node:f.Samples.output ~q:1 with
  | a1 ->
    let w1 = Awe.waveform a1 ~t_stop:5e-9 ~samples:5001 in
    claim ~paper:"first-order error 150% (useless)"
      "transient error %.0f%%"
      (100. *. transient_error wex w1)
  | exception Awe.Degenerate _ ->
    claim ~paper:"first-order error 150% (useless)"
      "no first-order fit exists at all (%s)"
      "initial value 0, area nonzero");
  let a2 = Awe.approximate sys ~node:f.Samples.output ~q:2 in
  let w2 = Awe.waveform a2 ~t_stop:5e-9 ~samples:5001 in
  claim ~paper:"second-order error 0.65%, indistinguishable"
    "transient error %.2f%%, max abs error %.4f V"
    (100. *. transient_error wex w2)
    (Waveform.max_abs_error wex w2);
  plot ~label:"fig21: charge-sharing glitch, AWE q2 (*) vs simulation (+)"
    [ w2; wex ]

let fig23 () =
  section "Fig. 23 — floating coupling capacitors (Fig. 22), output at C7";
  let base = Samples.fig16 () in
  let cpl, _ = Samples.fig22 () in
  let sys_b = Mna.build base.Samples.circuit in
  let sys_c = Mna.build cpl.Samples.circuit in
  let wex = simulate sys_c cpl.Samples.output ~t_stop:6e-9 ~steps:6000 in
  let err q =
    let a = Awe.approximate sys_c ~node:cpl.Samples.output ~q in
    transient_error wex (Awe.waveform a ~t_stop:6e-9 ~samples:6001)
  in
  let delay sys node =
    let a = Awe.approximate sys ~node ~q:3 in
    Option.value ~default:nan (Awe.delay a ~threshold:4.0 ~t_max:10e-9)
  in
  claim ~paper:"delay moves 1.6 -> 1.7 ns at the 4.0 V threshold"
    "%.2f ns -> %.2f ns"
    (1e9 *. delay sys_b base.Samples.output)
    (1e9 *. delay sys_c cpl.Samples.output);
  let est_base =
    Awe.error_estimate sys_b ~node:base.Samples.output ~q:2
  in
  let est_cpl = Awe.error_estimate sys_c ~node:cpl.Samples.output ~q:2 in
  claim
    ~paper:"order-2 error term grows with the coupling path (0.15% -> 15%)"
    "order-2 estimate %.3f%% -> %.3f%% (sim error %.3f%%); the 100x jump \
     depends on the unpublished element values — see EXPERIMENTS.md"
    (100. *. est_base) (100. *. est_cpl)
    (100. *. err 2);
  claim ~paper:"a higher order restores accuracy (15% -> 0.14% at order 3)"
    "order-3 error %.4f%%" (100. *. err 3);
  let a3 = Awe.approximate sys_c ~node:cpl.Samples.output ~q:3 in
  plot ~label:"fig23: aggressor, AWE q3 (*) vs simulation (+)"
    [ Awe.waveform a3 ~t_stop:6e-9 ~samples:6001; wex ]

let fig24 () =
  section "Fig. 24 — charge dumped onto the victim through C11";
  let cpl, victim = Samples.fig22 () in
  let sys = Mna.build cpl.Samples.circuit in
  let wex = simulate sys victim ~t_stop:10e-9 ~steps:8000 in
  let a = Awe.approximate sys ~node:victim ~q:3 in
  let wap = Awe.waveform a ~t_stop:10e-9 ~samples:8001 in
  claim ~paper:"victim settles at the capacitive divider value"
    "%.4f V (exact: 1.25 V)" (Awe.steady_state a);
  (* m_0 matching makes the area under the transient exact: compare
     integral of (v_inf - v) between simulation and AWE *)
  let area w =
    let vf = Waveform.final_value w in
    let acc = ref 0. in
    Array.iteri
      (fun i t ->
        if i > 0 then begin
          let dt = t -. w.Waveform.times.(i - 1) in
          acc :=
            !acc
            +. (0.5 *. dt
               *. ((vf -. w.Waveform.values.(i))
                  +. (vf -. w.Waveform.values.(i - 1))))
        end)
      w.Waveform.times;
    !acc
  in
  claim ~paper:"transferred charge (area) is always exact"
    "area sim %.4e V.s vs AWE %.4e V.s (diff %.2f%%)" (area wex)
    (area wap)
    (100. *. Float.abs (area wex -. area wap) /. Float.abs (area wex));
  plot ~label:"fig24: victim charge-up, AWE q3 (*) vs simulation (+)"
    [ wap; wex ]

let table2_fig26 () =
  section "Table II + Fig. 26 — underdamped RLC (Fig. 25), 5 V step";
  let f = Samples.fig25 () in
  let sys = Mna.build f.Samples.circuit in
  let poles_at q =
    match Awe.approximate sys ~node:f.Samples.out ~q with
    | a -> Awe.poles a
    | exception _ -> []
  in
  print_pole_table ~title:"  (output at C3; rad/s)"
    [ ("2nd order", poles_at 2);
      ("4th order", poles_at 4);
      ("actual", actual_poles sys) ];
  let wex = simulate sys f.Samples.out ~t_stop:10e-9 ~steps:10000 in
  let err q =
    let a = Awe.approximate sys ~node:f.Samples.out ~q in
    transient_error wex (Awe.waveform a ~t_stop:10e-9 ~samples:10001)
  in
  (match Awe.poles (Awe.approximate sys ~node:f.Samples.out ~q:1) with
  | [ p ] ->
    claim ~paper:"first order: one real pole (-2.833e9), error 74%"
      "real pole %.3e, error %.0f%%" p.Linalg.Cx.re
      (100. *. err 1)
  | _ -> ());
  claim ~paper:"second order detects the overshoot, error 22%"
    "error %.0f%%, overshoot %.2f V (sim %.2f V)"
    (100. *. err 2)
    (Waveform.overshoot
       (Awe.waveform
          (Awe.approximate sys ~node:f.Samples.out ~q:2)
          ~t_stop:10e-9 ~samples:10001))
    (Waveform.overshoot wex);
  claim ~paper:"fourth order: error < 1%, all detail matched"
    "error %.1f%%" (100. *. err 4);
  let a4 = Awe.approximate sys ~node:f.Samples.out ~q:4 in
  plot ~label:"fig26: AWE q4 (*) vs simulation (+)"
    [ Awe.waveform a4 ~t_stop:10e-9 ~samples:10001; wex ]

let fig27 () =
  section "Fig. 27 — Fig. 25 with a 1 ns input rise time, second order";
  let wave = Element.Ramp { v0 = 0.; v1 = 5.; t_delay = 0.; t_rise = 1e-9 } in
  let f = Samples.fig25 ~wave () in
  let sys = Mna.build f.Samples.circuit in
  let wex = simulate sys f.Samples.out ~t_stop:10e-9 ~steps:10000 in
  let a2 = Awe.approximate sys ~node:f.Samples.out ~q:2 in
  let w2 = Awe.waveform a2 ~t_stop:10e-9 ~samples:10001 in
  claim ~paper:"rise time damps the higher pair; one pair dominates"
    "q2 transient error %.1f%% (the step input needed q4)"
    (100. *. transient_error wex w2);
  let fstep = Samples.fig25 () in
  let sys_s = Mna.build fstep.Samples.circuit in
  let wex_s = simulate sys_s fstep.Samples.out ~t_stop:10e-9 ~steps:10000 in
  claim ~paper:"step response has the larger error term"
    "overshoot: step %.2f V vs ramp %.2f V"
    (Waveform.overshoot wex_s) (Waveform.overshoot wex);
  plot ~label:"fig27: AWE q2 with ramp input (*) vs simulation (+)"
    [ w2; wex ]

let eq56 () =
  section "Section IV / eq. 56 — tree-link moments are the Elmore delays";
  let f = Samples.fig4 () in
  let tl = Awe.Tree_link.prepare f.Samples.circuit in
  let w1 = Awe.Tree_link.moment_vector tl ~k:1 in
  let tds = Awe.Elmore.delays f.Samples.circuit in
  note "node   w1 (tree-link)   5 * T_D (tree walk)";
  List.iter
    (fun (name, node) ->
      note "%-5s  %.6e    %.6e" name w1.(node) (5. *. tds.(node)))
    [ ("n1", f.Samples.n1); ("n2", f.Samples.n2); ("n3", f.Samples.n3);
      ("n4", f.Samples.n4) ];
  (* grounded-resistor case: tree-link equals the general engine *)
  let f9 = Samples.fig9 () in
  let sys9 = Mna.build f9.Samples.circuit in
  let tl9 = Awe.Tree_link.prepare f9.Samples.circuit in
  let mu_tl = Awe.Tree_link.moments tl9 ~node:f9.Samples.n4 ~count:4 in
  let e = Awe.Moments.make sys9 in
  let op0 = Dc.initial sys9 in
  let op0p = Dc.at_zero_plus sys9 op0 in
  let prob = Awe.Moments.base_problem e op0p in
  let mu_en =
    Awe.Moments.mu
      (Awe.Moments.vectors e prob ~count:4)
      ~out_var:(Mna.node_var sys9 f9.Samples.n4)
  in
  let max_rel = ref 0. in
  Array.iteri
    (fun i v ->
      max_rel := Float.max !max_rel (Float.abs ((v -. mu_en.(i)) /. mu_en.(i))))
    mu_tl;
  claim ~paper:"grounded resistor handled as a link, still O(n)"
    "tree-link vs LU moments agree to %.1e relative" !max_rel

let scaling () =
  section "Scaling (Section 3.2) — moment computation cost vs circuit size";
  note "random RC trees; kernel = factor the DC matrix + 2q solves; q = 3";
  note "%6s %14s %14s %14s %8s" "n" "dense(ns)" "sparse(ns)" "treelink(ns)"
    "fill";
  List.iter
    (fun n ->
      let ckt, leaf = Samples.random_rc_tree ~seed:7 ~n () in
      let sys = Mna.build ckt in
      (* the homogeneous initial vector is computed once; the timed
         kernel is the per-analysis work the paper discusses in
         Section 3.2: one factorization plus repeated substitutions *)
      let e0 = Awe.Moments.make sys in
      let op0 = Dc.initial sys in
      let op0p = Dc.at_zero_plus sys op0 in
      let prob = Awe.Moments.base_problem e0 op0p in
      let moments_with ~sparse () =
        let e = Awe.Moments.make ~sparse sys in
        ignore (Awe.Moments.vectors e prob ~count:6)
      in
      let tl = Awe.Tree_link.prepare ckt in
      let tree_link () =
        ignore (Awe.Tree_link.moments tl ~node:leaf ~count:6)
      in
      let results =
        measure_ns
          [ ("dense", moments_with ~sparse:false);
            ("sparse", moments_with ~sparse:true);
            ("treelink", tree_link) ]
      in
      let ga = Sparse.Csr.of_dense (Mna.g sys) in
      let fill =
        match Sparse.Slu.factor ga with
        | fa -> Sparse.Slu.nnz_factors fa
        | exception Sparse.Slu.Singular _ -> -1
      in
      note "%6d %14.0f %14.0f %14.0f %8d" n
        (List.assoc "dense" results)
        (List.assoc "sparse" results)
        (List.assoc "treelink" results)
        fill)
    [ 10; 25; 50; 100; 200; 400 ];
  note "claim: runtime is dominated by moment computation and stays";
  note "near-linear with the sparse and tree-link solvers."

let ablation () =
  section "Ablation 1 — frequency scaling (Section 3.5)";
  let f = Samples.fig16 ~wave:step5 () in
  let sys = Mna.build f.Samples.circuit in
  let out_var = Mna.node_var sys f.Samples.output in
  let e = Awe.Moments.make sys in
  let op0 = Dc.initial sys in
  let op0p = Dc.at_zero_plus sys op0 in
  let prob = Awe.Moments.base_problem e op0p in
  let mu = Awe.Moments.mu (Awe.Moments.vectors e prob ~count:12) ~out_var in
  note "%3s %16s %16s" "q" "rcond(scaled)" "rcond(raw)";
  List.iter
    (fun q ->
      note "%3d %16.2e %16.2e" q
        (Awe.Moment_match.condition_number ~scale:true ~q
           (Array.sub mu 0 (2 * q)))
        (Awe.Moment_match.condition_number ~scale:false ~q
           (Array.sub mu 0 (2 * q))))
    [ 1; 2; 3; 4 ];
  let max_order scale =
    let rec go q =
      if q > 6 then 6
      else begin
        match
          Awe.Moment_match.fit ~scale ~check_stability:false ~q
            (Array.sub mu 0 (2 * q))
        with
        | _ -> go (q + 1)
        | exception _ -> q - 1
      end
    in
    go 1
  in
  claim ~paper:"higher orders unreachable without scaling"
    "max solvable order: scaled %d vs raw %d" (max_order true)
    (max_order false);

  section "Ablation 2 — error estimator: exact L2 vs the Cauchy bound";
  let f25 = Samples.fig25 () in
  let sys25 = Mna.build f25.Samples.circuit in
  List.iter
    (fun q ->
      match
        ( Awe.approximate sys25 ~node:f25.Samples.out ~q,
          Awe.approximate sys25 ~node:f25.Samples.out ~q:(q + 1) )
      with
      | aq, aq1 ->
        let exact =
          Awe.Error_est.relative_error ~exact:aq1.Awe.base aq.Awe.base
        in
        let bound =
          Awe.Error_est.cauchy_bound ~exact:aq1.Awe.base aq.Awe.base
        in
        note "q=%d: exact %.3f, paper's Cauchy bound %.3f (ratio %.2f)" q
          exact bound (bound /. exact)
      | exception _ -> note "q=%d: fit unavailable" q)
    [ 1; 2; 3 ];

  section "Ablation 3 — order-escalation policy (Section 3.3)";
  let glitch = Samples.fig16 ~v_c6:5.0 ~wave:(Element.Dc 0.) () in
  let sys_g = Mna.build glitch.Samples.circuit in
  List.iter
    (fun q ->
      match Awe.approximate sys_g ~node:glitch.Samples.output ~q with
      | a ->
        note "q=%d on the nonmonotone node: ok (%d poles)" q
          (List.length (Awe.poles a))
      | exception Awe.Unstable_fit _ ->
        note "q=%d on the nonmonotone node: unstable -> escalate" q
      | exception Awe.Degenerate _ ->
        note "q=%d on the nonmonotone node: degenerate -> escalate" q)
    [ 1; 2; 3; 4 ];
  let _, err = Awe.auto sys_g ~node:glitch.Samples.output in
  claim ~paper:"escalation reaches an acceptable order"
    "auto converged with error estimate %.2f%%" (100. *. err);

  section "Ablation 4 — residues: confluent vs plain Vandermonde";
  (* two identical RC sections isolated by a unity-gain buffer: the
     transfer to the output has an exactly repeated pole at -1/RC,
     whose response is (1 - (1 + t/RC) e^(-t/RC)) — not representable
     by distinct-pole residues *)
  let b = Netlist.create () in
  Netlist.add_v b "v1" "in" "0" (Element.Step { v0 = 0.; v1 = 1. });
  Netlist.add_r b "r1" "in" "x" 1e3;
  Netlist.add_c b "c1" "x" "0" 1e-6;
  Netlist.add_vcvs b "e1" "y" "0" "x" "0" 1.;
  Netlist.add_r b "r2" "y" "out" 1e3;
  Netlist.add_c b "c2" "out" "0" 1e-6;
  let out = Netlist.node b "out" in
  let sys_d = Mna.build (Netlist.freeze b) in
  (match Awe.approximate sys_d ~node:out ~q:2 with
  | a ->
    let repeated =
      List.exists
        (fun t -> Array.length t.Awe.Approx.coeffs > 1)
        a.Awe.base
    in
    note "order-2 fit on the double-pole cascade: %s"
      (if repeated then "confluent residue path taken"
       else "poles separated numerically");
    (* either way the waveform must match (1 - (1 + t/tau)e^(-t/tau)) *)
    let tau = 1e-3 in
    let exact t = 1. -. ((1. +. (t /. tau)) *. exp (-.t /. tau)) in
    let max_err = ref 0. in
    List.iter
      (fun t -> max_err := Float.max !max_err (Float.abs (Awe.eval a t -. exact t)))
      [ 0.5e-3; 1e-3; 2e-3; 5e-3 ];
    claim ~paper:"repeated poles need the confluent residue system (eq. 29)"
      "double-pole waveform reproduced to %.2e max error" !max_err
  | exception Awe.Degenerate msg -> note "degenerate: %s" msg)

let shifted () =
  section
    "Ablation 5 — expansion point: Maclaurin (paper) vs a shifted \
     expansion (CFH direction)";
  let f = Samples.fig25 () in
  let sys = Mna.build f.Samples.circuit in
  let wex = simulate sys f.Samples.out ~t_stop:10e-9 ~steps:10000 in
  let actual = actual_poles sys in
  let sigma2_actual =
    (* damping of the second complex pair *)
    match List.filteri (fun i _ -> i = 2) actual with
    | [ p ] -> p.Linalg.Cx.re
    | _ -> nan
  in
  note "actual second-pair damping: %.4e" sigma2_actual;
  note "%12s %12s %16s" "shift" "q4 err" "2nd-pair sigma";
  List.iter
    (fun s0 ->
      match
        let opts = { Awe.default_options with Awe.expansion_shift = s0 } in
        Awe.approximate ~options:opts sys ~node:f.Samples.out ~q:4
      with
      | a ->
        let err =
          transient_error wex (Awe.waveform a ~t_stop:10e-9 ~samples:10001)
        in
        let sigma2 =
          match List.filteri (fun i _ -> i = 2) (Awe.poles a) with
          | [ p ] -> p.Linalg.Cx.re
          | _ -> nan
        in
        note "%12.2e %11.2f%% %16.4e" s0 (100. *. err) sigma2
      | exception _ -> note "%12.2e %12s" s0 "failed")
    [ 0.; -1e9; -3e9 ];
  note "the s = 0 expansion minimizes the time-domain (integral) error;";
  note "a shift near the band sharpens the second pair's damping estimate."

let sta_bench () =
  section "Application — STA: Elmore vs AWE net delays on a gate chain";
  let inv =
    Sta.cell ~name:"inv" ~drive_res:500. ~input_cap:20e-15 ~intrinsic:50e-12
  in
  let seg from_ to_ r c =
    { Sta.seg_from = from_; seg_to = to_; res = r; cap = c }
  in
  let d = Sta.create ~vdd:5. ~threshold:0.5 () in
  Sta.add_gate d ~inst:"u1" ~cell:inv ~inputs:[ "a" ] ~output:"y";
  Sta.add_gate d ~inst:"u2" ~cell:inv ~inputs:[ "y" ] ~output:"z";
  Sta.add_net d ~name:"a" ~segments:[ seg "drv" "u1" 100. 30e-15 ];
  Sta.add_net d ~name:"y"
    ~segments:[ seg "drv" "w" 300. 80e-15; seg "w" "u2" 200. 50e-15 ];
  Sta.add_net d ~name:"z" ~segments:[ seg "drv" "o" 10. 2e-15 ];
  Sta.add_primary_input d ~net:"a" ();
  let r_aw = Sta.analyze ~model:Sta.Awe_auto d in
  let r_el = Sta.analyze ~model:Sta.Elmore_model d in
  claim ~paper:"RC-tree timing within 10% of SPICE at 1000x the speed"
    "critical arrival AWE %.4g ns, Elmore %.4g ns"
    (r_aw.Sta.critical_arrival *. 1e9)
    (r_el.Sta.critical_arrival *. 1e9)

let sta_batch () =
  section "Application — STA batch kernel: shared factorization vs per-sink";
  let inv =
    Sta.cell ~name:"inv" ~drive_res:500. ~input_cap:20e-15 ~intrinsic:50e-12
  in
  let seg from_ to_ r c =
    { Sta.seg_from = from_; seg_to = to_; res = r; cap = c }
  in
  (* a clock-tree-like stage: one driver net fanning out to four
     receivers, then a second fanout level — multi-sink nets are where
     sharing the factorization pays *)
  let d = Sta.create ~vdd:5. ~threshold:0.5 () in
  Sta.add_gate d ~inst:"u0" ~cell:inv ~inputs:[ "clk" ] ~output:"t0";
  let leaves =
    List.init 8 (fun i -> Printf.sprintf "l%d" (i + 1))
  in
  let t0_segs =
    seg "drv" "h" 120. 40e-15
    :: List.concat_map
         (fun l ->
           [ seg "h" (l ^ "w1") 250. 60e-15;
             seg (l ^ "w1") (l ^ "w2") 250. 60e-15;
             seg (l ^ "w2") (l ^ "w3") 200. 50e-15;
             seg (l ^ "w3") ("u" ^ l) 180. 45e-15 ])
         leaves
  in
  List.iter
    (fun l ->
      Sta.add_gate d ~inst:("u" ^ l) ~cell:inv ~inputs:[ "t0" ] ~output:l;
      Sta.add_net d ~name:l
        ~segments:
          [ seg "drv" "m" 200. 50e-15; seg "m" ("s" ^ l) 150. 35e-15 ];
      Sta.add_gate d ~inst:("s" ^ l) ~cell:inv ~inputs:[ l ] ~output:(l ^ "o");
      Sta.add_net d ~name:(l ^ "o")
        ~segments:[ seg "drv" "end" 10. 2e-15 ])
    leaves;
  Sta.add_net d ~name:"clk" ~segments:[ seg "drv" "u0" 80. 25e-15 ];
  Sta.add_net d ~name:"t0" ~segments:t0_segs;
  Sta.add_primary_input d ~net:"clk" ();
  let q = 3 in
  let r = Sta.analyze ~model:(Sta.Awe_model q) d in
  let sinks = List.fold_left (fun n nt -> n + List.length nt.Sta.sinks) 0 r.Sta.nets in
  let timed_nets =
    List.length (List.filter (fun nt -> nt.Sta.sinks <> []) r.Sta.nets)
  in
  claim
    ~paper:"one matrix factorization per net, shared by all of its sinks"
    "%d sinks on %d nets -> %d factorizations, %d MNA builds" sinks timed_nets
    r.Sta.stats.Awe.Stats.factorizations r.Sta.stats.Awe.Stats.mna_builds;
  (* per-sink baseline: what the pre-refactor kernel did — a fresh MNA
     build, factorization, moment set, and crossing search per sink *)
  let per_sink_all () =
    List.iter
      (fun nt ->
        if nt.Sta.sinks <> [] then begin
          let circuit, sink_nodes =
            Sta.net_circuit d ~net:nt.Sta.net_name ~driver_res:500. ~slew:0.
          in
          List.iter
            (fun s ->
              let sys = Mna.build circuit in
              let node = List.assoc s.Sta.sink_inst sink_nodes in
              let a = Awe.approximate sys ~node ~q in
              let tau = Float.max (Awe.elmore_equivalent sys ~node) 1e-15 in
              let t_max = 50. *. tau in
              ignore (Awe.delay a ~threshold:2.5 ~t_max);
              ignore (Awe.Approx.crossing_time a.Awe.response ~threshold:0.5 ~t_max);
              ignore (Awe.Approx.crossing_time a.Awe.response ~threshold:4.5 ~t_max))
            nt.Sta.sinks
        end)
      r.Sta.nets
  in
  let batched_all () = ignore (Sta.analyze ~model:(Sta.Awe_model q) d) in
  let results =
    measure_ns
      [ ("per-sink kernel", per_sink_all); ("batched kernel", batched_all) ]
  in
  List.iter (fun (name, ns) -> note "%-18s %10.0f ns/run" name ns) results;
  (match results with
  | [ (_, base); (_, batched) ] when base > 0. && batched > 0. ->
    note "speedup: %.2fx (batched additionally re-times slews/arrivals)"
      (base /. batched)
  | _ -> ())

(* ------------------------------------------------------------------ *)

(* [chains] independent inverter chains of [depth] stages, each stage
   output routed over a [rungs]-segment RC ladder to the next gate.
   Chains never touch, so every topological wave holds [chains] ready
   nets — the shape that exercises the per-wave parallel fan-out. *)
let parallel_design ~chains ~depth ~rungs =
  let inv =
    Sta.cell ~name:"inv" ~drive_res:500. ~input_cap:20e-15 ~intrinsic:50e-12
  in
  let seg from_ to_ r c =
    { Sta.seg_from = from_; seg_to = to_; res = r; cap = c }
  in
  let ladder sink =
    List.init rungs (fun i ->
        let from_ = if i = 0 then "drv" else Printf.sprintf "w%d" i in
        let to_ = if i = rungs - 1 then sink else Printf.sprintf "w%d" (i + 1) in
        seg from_ to_ (150. +. (10. *. float_of_int i)) 40e-15)
  in
  let d = Sta.create ~vdd:5. ~threshold:0.5 () in
  for c = 0 to chains - 1 do
    let stage_net s = Printf.sprintf "c%dn%d" c s in
    let inst s = Printf.sprintf "u%d_%d" c s in
    let in_net = Printf.sprintf "c%din" c in
    for s = 0 to depth - 1 do
      Sta.add_gate d ~inst:(inst s) ~cell:inv
        ~inputs:[ (if s = 0 then in_net else stage_net (s - 1)) ]
        ~output:(stage_net s)
    done;
    Sta.add_net d ~name:in_net ~segments:(ladder (inst 0));
    for s = 0 to depth - 2 do
      Sta.add_net d ~name:(stage_net s) ~segments:(ladder (inst (s + 1)))
    done;
    (* the last output drives off-design: a stub wire, no sinks *)
    Sta.add_net d ~name:(stage_net (depth - 1))
      ~segments:[ seg "drv" "end" 10. 2e-15 ];
    Sta.add_primary_input d ~net:in_net ();
    Sta.add_primary_output d ~net:(stage_net (depth - 1))
  done;
  d

let sta_parallel ~smoke =
  section
    (if smoke then "STA parallel fan-out — smoke (overhead gate)"
     else "STA parallel fan-out — wall-clock speedup vs jobs");
  let chains, depth, rungs, reps =
    if smoke then (4, 4, 4, 5) else (16, 16, 8, 5)
  in
  let d = parallel_design ~chains ~depth ~rungs in
  let nets = List.length (Sta.net_names d) in
  note "design: %d chains x %d stages = %d nets; %d recommended domains"
    chains depth nets (Parallel.default_jobs ());
  (* per-jobs warm-up + median-of-[reps]; medians are the headline
     numbers, the min/max spread rides along in the JSON *)
  let results, _ =
    jobs_sweep ~what:"reports" ~reps [ 1; 2; 4; 8 ] (fun jobs ->
        Sta.analyze ~model:Sta.Awe_auto ~sparse:true ~jobs d)
  in
  let t1 = (fst (List.assoc 1 results)).t_med in
  let t4 = (fst (List.assoc 4 results)).t_med in
  List.iter
    (fun (j, (t, _)) ->
      note "jobs=%d  median %8.2f ms  [%.2f .. %.2f]   speedup %.2fx" j
        (1e3 *. t.t_med) (1e3 *. t.t_min) (1e3 *. t.t_max) (t1 /. t.t_med))
    results;
  let r1 = snd (List.assoc 1 results) in
  let all same = List.for_all (fun (_, (_, r)) -> same r1 r) results in
  let identical = all reports_identical in
  let stats_identical = all work_identical in
  claim ~paper:"parallel evaluation is an execution detail, not a model"
    "jobs=1 vs jobs=2/4/8: reports identical %b, merged counters identical %b"
    identical stats_identical;
  (* overhead gate: jobs=4 must not lose more than 10% to jobs=1
     (plus 5 ms absolute slack so sub-ms noise can't flake the CI
     job on small designs); medians, not single shots *)
  if smoke then
    ignore
      (check
         (Printf.sprintf "jobs=4 %.2f ms vs jobs=1 %.2f ms (>10%% slower)"
            (1e3 *. t4) (1e3 *. t1))
         (t4 <= (1.1 *. t1) +. 5e-3));
  let per_jobs f = by_jobs (fun (t, _) -> num "%.3f" (f t)) results in
  write_bench ~smoke "sta_parallel"
    [ ("chains", Int chains); ("depth", Int depth); ("rungs", Int rungs);
      ("nets", Int nets); ("reps", Int reps);
      ("ms_median_per_jobs", per_jobs (fun t -> 1e3 *. t.t_med));
      ("ms_min_per_jobs", per_jobs (fun t -> 1e3 *. t.t_min));
      ("ms_max_per_jobs", per_jobs (fun t -> 1e3 *. t.t_max));
      ("speedup_vs_jobs1", per_jobs (fun t -> t1 /. t.t_med));
      ("reports_identical", Bool identical);
      ("stats_identical", Bool stats_identical) ]

let sta_cache_bench ~smoke =
  section
    (if smoke then "STA structure cache — smoke (hit rate + identity gates)"
     else "STA structure cache — cold vs warm wall-clock");
  let chains, depth, rungs, reps =
    if smoke then (4, 4, 4, 3) else (16, 16, 8, 5)
  in
  let d = parallel_design ~chains ~depth ~rungs in
  let nets = List.length (Sta.net_names d) in
  note "design: %d chains x %d stages = %d nets; %d recommended domains"
    chains depth nets (Parallel.default_jobs ());
  let analyze ?cache jobs =
    Sta.analyze ~model:Sta.Awe_auto ~sparse:true ~jobs ?cache d
  in
  let rows =
    List.map
      (fun jobs ->
        (* cold: every rep — the warm-up included — rebuilds the cache
           from scratch inside the timed closure, so no rep inherits
           entries from an earlier one (first analysis of the design;
           within-run template hits still fire) *)
        let cold_t, cold_r =
          timed_runs ~reps (fun () -> analyze ~cache:(Sta.create_cache ()) jobs)
        in
        (* warm: one shared cache populated by a prior analysis — the
           steady state of incremental re-timing *)
        let cache = Sta.create_cache () in
        ignore (analyze ~cache jobs);
        let warm_t, warm_r = timed_runs ~reps (fun () -> analyze ~cache jobs) in
        let off_r = analyze jobs in
        let c = cold_r.Sta.stats and s = warm_r.Sta.stats in
        let hits = s.Awe.Stats.cache_exact_hits in
        let lookups = hits + s.Awe.Stats.cache_misses in
        let hit_rate =
          if lookups = 0 then 0. else float_of_int hits /. float_of_int lookups
        in
        note
          "jobs=%d  cold median %8.2f ms  warm median %8.2f ms  speedup \
           %.2fx  warm exact-hit rate %.0f%%"
          jobs (1e3 *. cold_t.t_med) (1e3 *. warm_t.t_med)
          (cold_t.t_med /. warm_t.t_med)
          (100. *. hit_rate);
        let both same = same off_r cold_r && same off_r warm_r in
        let rid =
          check
            (Printf.sprintf "jobs=%d cache-on reports vs cache-off" jobs)
            (both reports_identical)
        in
        let cid =
          check
            (Printf.sprintf "jobs=%d cache-on solve counters vs cache-off" jobs)
            (both work_identical)
        in
        ( (cold_r, warm_r, rid && cid),
          ( string_of_int jobs,
            Obj
              [ ("cold_ms", ms_spread cold_t); ("warm_ms", ms_spread warm_t);
                ( "speedup_warm_vs_cold",
                  num "%.2f" (cold_t.t_med /. warm_t.t_med) );
                ("cold_exact_hits", Int c.Awe.Stats.cache_exact_hits);
                ("cold_pattern_hits", Int c.Awe.Stats.cache_pattern_hits);
                ("cold_misses", Int c.Awe.Stats.cache_misses);
                ("warm_exact_hits", Int hits);
                ("warm_misses", Int s.Awe.Stats.cache_misses);
                ("warm_hit_rate", num "%.3f" hit_rate);
                ("cache_bytes", Int s.Awe.Stats.cache_bytes);
                ("reports_identical", Bool rid);
                ("counters_identical", Bool cid) ] ) ))
      [ 1; 4 ]
  in
  (* cross-jobs determinism of the cached runs themselves *)
  let (cr1, wr1, _), _ = List.nth rows 0 in
  let (cr4, wr4, _), _ = List.nth rows 1 in
  let both same = same cr1 cr4 && same wr1 wr4 in
  let cross_reports =
    check "cached reports jobs=1 vs jobs=4" (both reports_identical)
  in
  let cross =
    check "cache counters jobs=1 vs jobs=4" (both cache_counters_identical)
    && cross_reports
  in
  claim
    ~paper:"don't pay for the same structure twice (eq. 32 amortized)"
    "cache-on/off identical %b, cross-jobs identical %b"
    (List.for_all (fun ((_, _, ok), _) -> ok) rows)
    cross;
  (* CI gate: the chain design must produce exact-tier hits — warm
     runs should hit on (essentially) every looked-up net *)
  if smoke then begin
    let hits =
      List.map (fun ((_, wr, _), _) -> wr.Sta.stats.Awe.Stats.cache_exact_hits) rows
    in
    ignore
      (check
         (Printf.sprintf "warm exact-tier hits %s: a warm run hit nothing"
            (String.concat "/" (List.map string_of_int hits)))
         (not (List.mem 0 hits)))
  end;
  write_bench ~smoke "sta_cache"
    [ ("chains", Int chains); ("depth", Int depth); ("rungs", Int rungs);
      ("nets", Int nets); ("reps", Int reps);
      ("jobs", Obj (List.map snd rows));
      ("cross_jobs_identical", Bool cross) ]

(* The cold-cache scaling scenario behind ROADMAP item 4: (1) the
   regression gate — cold cache at jobs=4 must stay within 10% of
   jobs=1 on the 272-net chain (the configuration that used to run
   3x slower); (2) a jobs sweep over the Synth 10k-net-class
   generators, with the full determinism identity checks and — only
   when the machine actually has more than one core — a speedup gate
   on the cache-hostile buffered mesh, where parallel solves are the
   sole lever; (3) the linearity gate — cold cost per net may grow at
   most 1.3x from a 1,000- to an 8,000-stage chain and from a 25x25 to
   a 100x100 grid. *)
let sta_scale ~smoke =
  section
    (if smoke then "STA scale — smoke (cold-overhead, linearity gates + identities)"
     else "STA scale — cold-cache jobs sweep on 10k-net-class designs");
  let cores = Parallel.default_jobs () in
  note "%d recommended domains" cores;
  let cold_analyze d jobs =
    (* truly cold: fresh cache built inside the timed closure *)
    let cache = Sta.create_cache () in
    Sta.analyze ~model:Sta.Awe_auto ~sparse:true ~jobs ~cache d
  in
  (* -- part 1: the chain-design regression gate ------------------- *)
  let chains, depth, rungs, reps =
    if smoke then (4, 4, 4, 5) else (16, 16, 8, 5)
  in
  let chain_d = parallel_design ~chains ~depth ~rungs in
  let chain_nets = List.length (Sta.net_names chain_d) in
  let chain, chain_identical =
    jobs_sweep ~what:"chain cold reports" ~reps [ 1; 4 ] (cold_analyze chain_d)
  in
  let t1 = fst (List.assoc 1 chain) and t4 = fst (List.assoc 4 chain) in
  note
    "chain %d nets: cold jobs=1 %8.2f ms, cold jobs=4 %8.2f ms (ratio %.2fx)"
    chain_nets (1e3 *. t1.t_med) (1e3 *. t4.t_med) (t4.t_med /. t1.t_med);
  (* the regression this scenario exists to keep dead: cold jobs=4
     within 10% of cold jobs=1 (5 ms absolute slack against sub-ms
     noise on small smoke designs) *)
  let chain_gate_ok =
    check
      (Printf.sprintf "cold jobs=4 %.2f ms vs jobs=1 %.2f ms (>10%% slower)"
         (1e3 *. t4.t_med) (1e3 *. t1.t_med))
      (t4.t_med <= (1.1 *. t1.t_med) +. 5e-3)
  in
  (* -- part 2: jobs sweep over the Synth generators --------------- *)
  let designs =
    if smoke then
      [ ("grid", Sta.Synth.grid ~rows:16 ~cols:16 ());
        ("clock_tree", Sta.Synth.clock_tree ~levels:5 ~fanout:4 ());
        ("buffered_mesh", Sta.Synth.buffered_mesh ~rows:16 ~cols:16 ()) ]
    else
      [ ("grid", Sta.Synth.grid ~rows:100 ~cols:100 ());
        ("clock_tree", Sta.Synth.clock_tree ~levels:7 ~fanout:4 ());
        ("buffered_mesh", Sta.Synth.buffered_mesh ~rows:50 ~cols:50 ()) ]
  in
  let sweep_reps = if smoke then 3 else 5 in
  let per_design =
    List.map
      (fun (name, d) ->
        let nets = Sta.Synth.net_count d in
        let results, identical =
          jobs_sweep ~what:(name ^ " cold") ~reps:sweep_reps [ 1; 4; 8 ]
            (cold_analyze d)
        in
        let t1 = (fst (List.assoc 1 results)).t_med in
        List.iter
          (fun (j, (t, _)) ->
            note "%-14s %6d nets  jobs=%d  cold median %8.2f ms  speedup %.2fx"
              name nets j (1e3 *. t.t_med) (t1 /. t.t_med))
          results;
        let per_jobs fmt f = by_jobs (fun (t, _) -> num fmt (f t)) results in
        ( name,
          ( results,
            identical,
            Obj
              [ ("nets", Int nets);
                ("cold_ms_per_jobs", per_jobs "%.3f" (fun t -> 1e3 *. t.t_med));
                ("speedup_vs_jobs1", per_jobs "%.2f" (fun t -> t1 /. t.t_med)) ]
          ) ))
      designs
  in
  let identities_ok =
    chain_identical && List.for_all (fun (_, (_, ok, _)) -> ok) per_design
  in
  (* speedup gate: only meaningful with real cores.  The buffered mesh
     is the cache-hostile design — few repeated templates, so parallel
     solves are the only lever and any scheduling win must show up
     here.  2 ms slack so borderline two-core machines don't flake. *)
  let speedup_gate_ok =
    if cores <= 1 then begin
      note "speedup gate skipped: %d core(s) available" cores;
      true
    end
    else begin
      let results, _, _ = List.assoc "buffered_mesh" per_design in
      let t1 = (fst (List.assoc 1 results)).t_med in
      let t4 = (fst (List.assoc 4 results)).t_med in
      check
        (Printf.sprintf "buffered_mesh cold jobs=4 %.2f ms vs jobs=1 %.2f ms"
           (1e3 *. t4) (1e3 *. t1))
        (t4 <= t1 +. 2e-3)
    end
  in
  claim ~paper:"domain decomposition pays only at useful granularity"
    "cold jobs=4/jobs=1 ratio %.2f on %d-net chain, identities clean %b"
    (t4.t_med /. t1.t_med) chain_nets identities_ok;
  (* -- part 3: the linearity gate --------------------------------- *)
  (* Cold analyze at jobs=1 with a fresh cache (the CLI defaults), in
     microseconds per net at two sizes of one family: with cost linear
     in nets the ratio stays near 1, while any per-net pass over the
     whole design doubles it with every 4x in nets.  A ratio, so it
     holds on slow or loaded single-core runners.  Same sizes in smoke
     and full runs: smaller pairs (a 2,000- vs 250-stage chain) do not
     separate linear from quadratic bookkeeping. *)
  let us_per_net d =
    let t, _ =
      timed_runs ~reps:3 (fun () ->
          Sta.analyze ~jobs:1 ~cache:(Sta.create_cache ()) d)
    in
    1e6 *. t.t_med /. float_of_int (Sta.Synth.net_count d)
  in
  let linearity name small big =
    let us_small = us_per_net (small ()) in
    let us_big = us_per_net (big ()) in
    let ratio = us_big /. us_small in
    note "%-28s %8.1f -> %8.1f us/net  ratio %.2fx (gate: <= 1.3)" name
      us_small us_big ratio;
    let pass =
      check (Printf.sprintf "%s grows %.2fx per net" name ratio) (ratio <= 1.3)
    in
    ( ratio,
      pass,
      ( name,
        Obj
          [ ("us_per_net", Arr [ num "%.1f" us_small; num "%.1f" us_big ]);
            ("ratio", num "%.3f" ratio); ("gate_ok", Bool pass) ] ) )
  in
  let ladder stages () = Sta.Synth.rc_ladder ~stages ~length:3 ~fanout:1 () in
  let grid n () = Sta.Synth.grid ~rows:n ~cols:n () in
  (* bound one at a time: list elements evaluate right to left *)
  let chain_lin = linearity "rc_ladder 1000 -> 8000 stages" (ladder 1000) (ladder 8000) in
  let grid_lin = linearity "grid 25x25 -> 100x100" (grid 25) (grid 100) in
  let lin = [ chain_lin; grid_lin ] in
  claim ~paper:"the per-stage cost is one factorization (eq. 56), whatever the design size"
    "cold us/net ratios %s"
    (String.concat ", "
       (List.map (fun (r, _, _) -> Printf.sprintf "%.2fx" r) lin));
  write_bench ~smoke "sta_scale"
    [ ( "chain",
        Obj
          [ ("nets", Int chain_nets); ("reps", Int reps);
            ("cold_ms_jobs1", ms_spread t1); ("cold_ms_jobs4", ms_spread t4);
            ("ratio_jobs4_vs_jobs1", num "%.3f" (t4.t_med /. t1.t_med));
            ("gate_ok", Bool chain_gate_ok) ] );
      ( "designs",
        Obj (List.map (fun (name, (_, _, o)) -> (name, o)) per_design) );
      ("linearity", Obj (List.map (fun (_, _, o) -> o) lin));
      ("identities_ok", Bool identities_ok);
      ("speedup_gate_ok", Bool speedup_gate_ok);
      ("linearity_gate_ok", Bool (List.for_all (fun (_, p, _) -> p) lin)) ]

(* Incremental ECO timing: a long-lived [Sta.Session] re-times only
   the dirty cone of an edit — the edited net is re-solved, downstream
   arrivals are rebuilt from the per-net memos by arithmetic alone —
   so a steady-state single-element edit must beat a cold full
   [analyze] of the same design by a wide margin.  Two gates: >= 5x at
   jobs=1 (the pool is irrelevant when one net is dirty), and a counter
   gate that holds on any host — the endpoint edit's forward worklist
   visits at most twice the nets it re-solves, so the forward pass
   follows the cone rather than the design.  (Its backward cone is
   the whole fan-in: the corner net sits on the binding path of almost
   every upstream net, so backward visits are reported, not gated.)
   Identity checks pin the bit-identity contract: the incremental
   report equals a cold analyze of the edited design, field for field,
   at jobs 1 and 4, and the session cache fingerprint equals the cold
   cache's. *)
let sta_eco ~smoke =
  section
    (if smoke then "STA ECO — smoke (incremental-vs-cold gate + identities)"
     else "STA ECO — steady-state dirty-cone re-time vs cold analyze");
  let rows, cols, reps = if smoke then (24, 24, 5) else (100, 100, 5) in
  let mk_design () =
    let d = Sta.Synth.grid ~rows ~cols () in
    (* a clock makes every primary output an endpoint, so the slack
       tables the identity checks compare are non-trivial *)
    Sta.set_clock d ~period:5e-9;
    d
  in
  let nets = Sta.Synth.net_count (mk_design ()) in
  (* Two edit sites.  The gated one sits next to an endpoint — the
     typical ECO fix (resize a wire feeding a failing output), whose
     dirty cone is a handful of nets.  The mid-grid one is the
     worst-ish case: its slew cone is the whole downstream quadrant,
     so it shows how the advantage shrinks as the cone grows —
     measured and reported, not gated. *)
  let endpoint_net = Printf.sprintf "w%d_%d" (rows - 2) (cols - 2) in
  let mid_net = Printf.sprintf "w%d_%d" (rows / 2) (cols / 2) in
  (* two resistance values per site; alternating between them keeps
     every retime genuinely dirty (a no-op edit would flatter the
     incremental path) *)
  let r_a = 80. and r_b = 260. in
  let edit s net v =
    let e = Sta.Session.Set_resistance { net; index = 0; value = v } in
    match Sta.Session.apply s e with
    | Ok () -> ()
    | Error msg -> failwith ("sta_eco: edit rejected: " ^ msg)
  in
  let retime s =
    match Sta.Session.retime s with
    | Ok r -> r
    | Error msg -> failwith ("sta_eco: retime failed: " ^ msg)
  in
  note "design: grid %dx%d (%d nets); edits: %s (endpoint), %s (mid); \
        trunk R %g <-> %g Ohm"
    rows cols nets endpoint_net mid_net r_a r_b;
  note "%d recommended domains" (Parallel.default_jobs ());
  (* -- part 1: the speedup gate (jobs=1, median-of-reps) ----------- *)
  let cold_d = mk_design () in
  let cold_t, _ =
    timed_runs ~reps (fun () ->
        Sta.analyze ~model:Sta.Awe_auto ~sparse:true ~jobs:1
          ~cache:(Sta.create_cache ()) cold_d)
  in
  let s =
    Sta.Session.create ~model:Sta.Awe_auto ~sparse:true ~jobs:1 (mk_design ())
  in
  (* steady-state loop over one edit site: alternate the two values,
     one retime per edit; dirty-cone size and worklist visits come from
     the totals delta *)
  let measure_eco label net =
    let flip = ref false in
    let before = Sta.Session.totals s in
    let t, _ =
      timed_runs ~reps (fun () ->
          flip := not !flip;
          edit s net (if !flip then r_b else r_a);
          retime s)
    in
    let after = Sta.Session.totals s in
    let per_retime field =
      float_of_int (field after - field before)
      /. float_of_int
           (max 1
              (after.Sta.Session.total_retimes
              - before.Sta.Session.total_retimes))
    in
    let dirty = per_retime (fun x -> x.Sta.Session.total_dirty) in
    let fwd = per_retime (fun x -> x.Sta.Session.total_forward_visits) in
    let bwd = per_retime (fun x -> x.Sta.Session.total_backward_visits) in
    note
      "eco %-9s jobs=1  median %8.2f ms  [%.2f .. %.2f]  speedup %5.1fx  \
       (%.1f of %d nets re-solved, %.1f / %.1f forward / backward visits \
       per retime)"
      label (1e3 *. t.t_med) (1e3 *. t.t_min) (1e3 *. t.t_max)
      (cold_t.t_med /. t.t_med) dirty nets fwd bwd;
    ( t,
      dirty,
      fwd,
      Obj
        [ ("net", Str net); ("dirty_per_retime", num "%.1f" dirty);
          ("forward_visits_per_retime", num "%.1f" fwd);
          ("backward_visits_per_retime", num "%.1f" bwd) ] )
  in
  note "cold analyze  jobs=1  median %8.2f ms  [%.2f .. %.2f]"
    (1e3 *. cold_t.t_med) (1e3 *. cold_t.t_min) (1e3 *. cold_t.t_max);
  let eco_t, dirty_endpoint, fwd_endpoint, endpoint_json =
    measure_eco "endpoint" endpoint_net
  in
  let mid_t, _, _, mid_json = measure_eco "mid-grid" mid_net in
  let fallbacks = (Sta.Session.totals s).Sta.Session.total_fallbacks in
  let speedup = cold_t.t_med /. eco_t.t_med in
  let no_fallbacks = check "no full fallbacks taken" (fallbacks = 0) in
  let speedup_ok =
    check
      (Printf.sprintf
         "endpoint eco retime %.2f ms vs cold %.2f ms — %.1fx < 5x"
         (1e3 *. eco_t.t_med) (1e3 *. cold_t.t_med) speedup)
      (speedup >= 5.)
  in
  let visits_ok =
    check
      (Printf.sprintf
         "endpoint eco retime visits %.1f nets forward per retime, over 2x \
          the %.1f it re-solves"
         fwd_endpoint dirty_endpoint)
      (fwd_endpoint <= 2. *. dirty_endpoint)
  in
  (* -- part 2: bit-identity at jobs 1 and 4 ----------------------- *)
  let identical j =
    let sj =
      Sta.Session.create ~model:Sta.Awe_auto ~sparse:true ~jobs:j (mk_design ())
    in
    (* the deep-cone edit, so the identity check covers a retime that
       re-solves hundreds of nets across several waves *)
    edit sj mid_net r_b;
    let inc = retime sj in
    let cold_cache = Sta.create_cache () in
    let cold =
      Sta.analyze ~model:Sta.Awe_auto ~sparse:true ~jobs:1 ~cache:cold_cache
        (Sta.Session.design sj)
    in
    let report_ok =
      check
        (Printf.sprintf "eco jobs=%d report vs cold analyze of edited design" j)
        (reports_identical inc cold)
    in
    let cache_ok =
      check
        (Printf.sprintf "eco jobs=%d cache fingerprint vs cold cache" j)
        (Sta.cache_fingerprint (Sta.Session.cache sj)
        = Sta.cache_fingerprint cold_cache)
    in
    (* edit-then-revert restores the pristine fingerprint exactly *)
    let undone = Sta.Session.revert_all sj in
    ignore (retime sj);
    let pristine_cache = Sta.create_cache () in
    ignore
      (Sta.analyze ~model:Sta.Awe_auto ~sparse:true ~jobs:1
         ~cache:pristine_cache (mk_design ()));
    let restored =
      check
        (Printf.sprintf
           "eco jobs=%d fingerprint restored after reverting %d edit(s)" j
           undone)
        (Sta.cache_fingerprint (Sta.Session.cache sj)
        = Sta.cache_fingerprint pristine_cache)
    in
    report_ok && cache_ok && restored
  in
  let identical_1 = identical 1 in
  let identical_4 = identical 4 in
  let identities_ok = no_fallbacks && identical_1 && identical_4 in
  claim ~paper:"ECO re-analysis touches the changed cone, not the design"
    "endpoint retime %.2f ms vs cold %.2f ms (%.1fx) on %d nets, \
     identities clean %b"
    (1e3 *. eco_t.t_med) (1e3 *. cold_t.t_med) speedup nets identities_ok;
  write_bench ~smoke "sta_eco"
    [ ( "design",
        Obj
          [ ("kind", Str "grid"); ("rows", Int rows); ("cols", Int cols);
            ("nets", Int nets) ] );
      ( "edits",
        Obj
          [ ("r_a", num "%g" r_a); ("r_b", num "%g" r_b);
            ("endpoint", endpoint_json); ("mid", mid_json) ] );
      ("reps", Int reps); ("cold_ms", ms_spread cold_t);
      ("eco_endpoint_ms", ms_spread eco_t); ("eco_mid_ms", ms_spread mid_t);
      ("speedup_endpoint", num "%.2f" speedup);
      ("speedup_mid", num "%.2f" (cold_t.t_med /. mid_t.t_med));
      ("fallbacks", Int fallbacks); ("speedup_gate_ok", Bool speedup_ok);
      ("visits_gate_ok", Bool visits_ok);
      ("gate_ok", Bool (speedup_ok && visits_ok));
      ("identities_ok", Bool identities_ok) ]

(* Multi-corner signoff: N corners derate element values but never
   topology, so [Sta.analyze_corners] shares one pattern-tier store
   across the per-corner caches and every topology pays for its
   symbolic sparse analysis exactly once.  The gates are counter-based
   (exact-tier misses = fresh symbolic analyses), so they hold on any
   machine — wall-clock numbers ride along for information only. *)
let sta_corners ~smoke =
  section
    (if smoke then "STA multi-corner — smoke (shared pattern-tier gates)"
     else
       "STA multi-corner — one symbolic analysis per topology across \
        corners");
  let rows, cols, reps = if smoke then (12, 12, 3) else (40, 40, 5) in
  let d = Sta.Synth.grid ~rows ~cols () in
  (* a clock makes every primary output an endpoint, so each corner
     reports a finite worst slack *)
  Sta.set_clock d ~period:5e-9;
  let corners =
    [ Circuit.Corner.nominal;
      Circuit.Corner.make ~name:"slow" ~wire_res:1.25 ~wire_cap:1.15
        ~cell_drive:1.3 ~cell_cap:1.1 ~cell_intrinsic:1.2 ();
      Circuit.Corner.make ~name:"fast" ~wire_res:0.85 ~wire_cap:0.9
        ~cell_drive:0.75 ~cell_cap:0.95 ~cell_intrinsic:0.85 ();
      Circuit.Corner.make ~name:"hot_wire" ~wire_res:1.4 ~wire_cap:1.05 () ]
  in
  let n = List.length corners in
  let nets = Sta.Synth.net_count d in
  note "design: grid %dx%d (%d nets); %d corners; %d recommended domains"
    rows cols nets n (Parallel.default_jobs ());
  (* baseline unit of symbolic work: one corner, private stores *)
  let single jobs =
    let cache = Sta.create_cache () in
    Sta.analyze ~model:Sta.Awe_auto ~sparse:true ~jobs ~cache
      (Sta.corner_design d (List.hd corners))
  in
  (* the naive N-corner flow: private stores per corner, so every
     corner re-pays the symbolic analyses *)
  let unshared jobs =
    List.map
      (fun c ->
        let cache = Sta.create_cache () in
        Sta.analyze ~model:Sta.Awe_auto ~sparse:true ~jobs ~cache
          (Sta.corner_design d c))
      corners
  in
  let multi jobs = Sta.analyze_corners ~sparse:true ~jobs d corners in
  let t_single, r_single = timed_runs ~reps (fun () -> single 1) in
  let t_unshared, rs_unshared = timed_runs ~reps (fun () -> unshared 1) in
  let t_multi, cr = timed_runs ~reps (fun () -> multi 1) in
  let misses (r : Sta.report) = r.Sta.stats.Awe.Stats.cache_misses in
  let phits (r : Sta.report) = r.Sta.stats.Awe.Stats.cache_pattern_hits in
  let sum f = List.fold_left (fun acc run -> acc + f run.Sta.run_report) 0 in
  let m_single = misses r_single in
  let m_multi = sum misses cr.Sta.runs in
  let m_unshared =
    List.fold_left (fun acc r -> acc + misses r) 0 rs_unshared
  in
  let p_multi = sum phits cr.Sta.runs in
  note "symbolic analyses (exact-tier misses): single corner %d, %d-corner \
        shared %d, %d-corner unshared %d"
    m_single n m_multi n m_unshared;
  note "wall-clock medians: single %.2f ms, %d-corner shared %.2f ms, \
        unshared %.2f ms"
    (1e3 *. t_single.t_med) n (1e3 *. t_multi.t_med)
    (1e3 *. t_unshared.t_med);
  List.iter
    (fun cs ->
      note "corner %-10s worst slack %10.4g ns  critical arrival %10.4g ns"
        cs.Sta.cs_name (1e9 *. cs.Sta.cs_worst_slack)
        (1e9 *. cs.Sta.cs_critical_arrival))
    cr.Sta.summary;
  (* gate 1: N corners cost at most ~1.3x one corner's symbolic work —
     corners 2..N must ride the shared pattern tier, not re-analyze *)
  let work_ratio = float_of_int m_multi /. float_of_int (max 1 m_single) in
  let work_gate_ok =
    check
      (Printf.sprintf "%d-corner symbolic work %.2fx the single corner (> 1.3x)"
         n work_ratio)
      (work_ratio <= 1.3)
  in
  (* gate 2: of the lookups that missed the exact tier, at least
     (N-1)/N hit the shared pattern tier — each later corner reuses
     what corner 1 paid for *)
  let share =
    float_of_int p_multi /. float_of_int (max 1 (p_multi + m_multi))
  in
  let share_floor = float_of_int (n - 1) /. float_of_int n in
  let share_gate_ok =
    check
      (Printf.sprintf "pattern-hit share %.3f below (N-1)/N = %.3f" share
         share_floor)
      (share >= share_floor -. 1e-9)
  in
  (* determinism: the corner sweep is bit-identical across jobs *)
  let cr4 = multi 4 in
  let runs_identical =
    check "corner sweep jobs=1 vs jobs=4"
      (List.for_all2
         (fun a b ->
           let a = a.Sta.run_report and b = b.Sta.run_report in
           reports_identical a b && work_identical a b
           && cache_counters_identical a b)
         cr.Sta.runs cr4.Sta.runs
      && cr.Sta.worst_corner = cr4.Sta.worst_corner
      && cr.Sta.worst_slack_overall = cr4.Sta.worst_slack_overall)
  in
  (* and identical to the naive unshared flow's reports (caching and
     sharing are execution details, never results) *)
  let reports_match_unshared =
    check "shared-tier reports vs unshared"
      (List.for_all2
         (fun run r -> reports_identical run.Sta.run_report r)
         cr.Sta.runs rs_unshared)
  in
  claim
    ~paper:"corners change values, never topology: symbolic work is \
            corner-invariant"
    "%d corners cost %.2fx one corner's symbolic analyses; pattern-hit \
     share %.2f; worst corner %s"
    n work_ratio share cr.Sta.worst_corner;
  write_bench ~smoke "sta_corners"
    [ ("rows", Int rows); ("cols", Int cols); ("nets", Int nets);
      ("corners", Int n); ("reps", Int reps);
      ("ms_single", ms_spread t_single);
      ("ms_multi_shared", ms_spread t_multi);
      ("ms_multi_unshared", ms_spread t_unshared);
      ("symbolic_misses_single", Int m_single);
      ("symbolic_misses_multi", Int m_multi);
      ("symbolic_misses_unshared", Int m_unshared);
      ("pattern_hits_multi", Int p_multi);
      ("symbolic_work_ratio", num "%.3f" work_ratio);
      ("pattern_hit_share", num "%.3f" share);
      ("worst_corner", Str cr.Sta.worst_corner);
      ("worst_slack_overall", num "%.6g" cr.Sta.worst_slack_overall);
      ("work_gate_ok", Bool work_gate_ok);
      ("share_gate_ok", Bool share_gate_ok);
      ("jobs_identical", Bool runs_identical);
      ("unshared_identical", Bool reports_match_unshared) ]

(* Lint 2.0 at scale: the whole pass stack (core checks + W2xx health
   + W13x coverage) over Synth grids, gated on the dataflow engine's
   work counter staying near-linear in net count.  The gate is
   counter-based — transfer applications plus the passes' explicit
   linear-scan ticks — so it holds on loaded or single-core runners;
   wall time rides along for information only. *)
let lint_scale ~smoke =
  section
    (if smoke then "Lint scale — smoke (near-linearity gate)"
     else "Lint scale — dataflow work vs design size");
  let r1, c1, r2, c2 = if smoke then (20, 20, 40, 40) else (50, 50, 100, 100) in
  let run rows cols =
    let d = Sta.Synth.grid ~rows ~cols () in
    let nets = List.length (Sta.net_names d) in
    Lint.Dataflow.reset_work ();
    let t0 = Unix.gettimeofday () in
    let diags = Lint.check_design d in
    let t = Unix.gettimeofday () -. t0 in
    (nets, Lint.Dataflow.work (), List.length diags, t)
  in
  ignore (run 4 4) (* warm-up *);
  let nets_s, work_s, diags_s, t_s = run r1 c1 in
  let nets_b, work_b, diags_b, t_b = run r2 c2 in
  note "grid %dx%d: %6d nets  %9d work  %4d diagnostics  %8.2f ms" r1 c1
    nets_s work_s diags_s (1e3 *. t_s);
  note "grid %dx%d: %6d nets  %9d work  %4d diagnostics  %8.2f ms" r2 c2
    nets_b work_b diags_b (1e3 *. t_b);
  let per_s = float_of_int work_s /. float_of_int nets_s in
  let per_b = float_of_int work_b /. float_of_int nets_b in
  let ratio = per_b /. per_s in
  claim ~paper:"static analysis must stay cheap next to the solves it guards"
    "work/net: %.1f (small) -> %.1f (big), growth %.3fx (gate: <= 1.5)"
    per_s per_b ratio;
  let ok =
    check (Printf.sprintf "lint work per net grew %.3fx (> 1.5x)" ratio)
      (ratio <= 1.5)
  in
  write_bench ~smoke "lint_scale"
    [ ("grid_small", Arr [ Int r1; Int c1 ]);
      ("grid_big", Arr [ Int r2; Int c2 ]);
      ("nets_small", Int nets_s); ("nets_big", Int nets_b);
      ("work_small", Int work_s); ("work_big", Int work_b);
      ("diags_small", Int diags_s); ("diags_big", Int diags_b);
      ("ms_small", num "%.3f" (1e3 *. t_s));
      ("ms_big", num "%.3f" (1e3 *. t_b));
      ("work_per_net_small", num "%.3f" per_s);
      ("work_per_net_big", num "%.3f" per_b);
      ("work_per_net_growth", num "%.4f" ratio);
      ("linearity_gate_ok", Bool ok) ]

let verify_bench () =
  section "Verification harness — differential oracle throughput";
  let seed = 42 and cases = 24 in
  (* one untimed pass for the quality numbers: the oracle's adaptive
     point counts and the worst model/simulator disagreement *)
  let outcomes =
    List.init cases (fun i ->
        Verify.Oracle.check (Verify.Cases.random_case ~seed:(seed + i)))
  in
  let failures =
    List.length (List.filter (fun o -> not (Verify.Oracle.passed o)) outcomes)
  in
  let worst =
    List.fold_left
      (fun acc (o : Verify.Oracle.outcome) ->
        if Float.is_nan o.Verify.Oracle.measured then acc
        else Float.max acc o.Verify.Oracle.measured)
      0. outcomes
  in
  let points =
    List.fold_left
      (fun acc (o : Verify.Oracle.outcome) ->
        acc + o.Verify.Oracle.oracle_points)
      0 outcomes
  in
  (* timed: a full oracle check (AWE + adaptive reference simulation +
     comparison) vs the AWE reduction alone, on the same case *)
  let one_case () =
    ignore (Verify.Oracle.check (Verify.Cases.random_case ~seed))
  in
  let awe_only () =
    let c = Verify.Cases.random_case ~seed in
    let sys = Mna.build c.Verify.Cases.circuit in
    ignore (Awe.auto sys ~node:c.Verify.Cases.node)
  in
  let results =
    measure_ns [ ("oracle check", one_case); ("awe reduction", awe_only) ]
  in
  List.iter (fun (name, ns) -> note "%-14s %12.0f ns/case" name ns) results;
  let ns_of name = try List.assoc name results with Not_found -> nan in
  let ns_oracle = ns_of "oracle check" and ns_awe = ns_of "awe reduction" in
  let per_sec = if ns_oracle > 0. then 1e9 /. ns_oracle else nan in
  note "oracle throughput: %.1f circuits/sec" per_sec;
  note "%d cases, %d failures, worst rel L2 %.4g, %d reference points" cases
    failures worst points;
  write_bench "verify"
    [ ("seed", Int seed); ("cases", Int cases); ("failures", Int failures);
      ("worst_rel_l2", num "%.6g" worst); ("oracle_points", Int points);
      ("oracle_ns_per_case", num "%.0f" ns_oracle);
      ("awe_ns_per_case", num "%.0f" ns_awe);
      ("circuits_per_sec", num "%.2f" per_sec) ]

(* ------------------------------------------------------------------ *)

(* Model-order reduction as a pre-AWE pass (ROADMAP item 3): cold
   analyze with the pass on vs off, the node-reduction ratio, per-net
   accuracy classified by which transforms fired (exact merges must be
   bit-close, moment-preserving lumps within the oracle band), and the
   pattern-tier hit delta — the ladder's three unreduced topology
   classes collapse to one reduced template, so the symbolic tier
   should hit more with the pass on. *)
let sta_reduce ~smoke =
  section
    (if smoke then "STA model-order reduction — smoke (elimination + gates)"
     else "STA model-order reduction — reduced vs unreduced cold analyze");
  let lstages, llen, lfan, grows, gcols, reps =
    if smoke then (6, 30, 6, 5, 5, 3) else (24, 40, 8, 10, 10, 5)
  in
  let designs =
    [ ( "rc_ladder",
        Sta.Synth.rc_ladder ~stages:lstages ~length:llen ~fanout:lfan () );
      ("grid", Sta.Synth.grid ~rows:grows ~cols:gcols ()) ]
  in
  let rows =
    List.map
      (fun (name, d) ->
        let nets = Sta.net_names d in
        (* the stage circuits as the timer sees them: denominator of
           the elimination ratio (ground excluded), and the per-net
           transform classification (driver values don't change
           topology, so nominal ones serve) *)
        let total_nodes = ref 0 in
        let exact_net = Hashtbl.create 64 in
        List.iter
          (fun net ->
            let c, sinks =
              Sta.net_circuit d ~net ~driver_res:100. ~slew:10e-12
            in
            total_nodes := !total_nodes + c.Netlist.node_count - 1;
            let r = Reduce.reduce ~ports:(List.map snd sinks) c in
            let rep = r.Reduce.report in
            Hashtbl.replace exact_net net
              (rep.Reduce.chain_lumps + rep.Reduce.star_merges = 0))
          nets;
        let per_jobs =
          List.map
            (fun jobs ->
              let on_t, on_r =
                timed_runs ~reps (fun () ->
                    Sta.analyze ~model:Sta.Awe_auto ~jobs d)
              in
              let off_t, off_r =
                timed_runs ~reps (fun () ->
                    Sta.analyze ~model:Sta.Awe_auto ~reduce:false ~jobs d)
              in
              note
                "%-10s jobs=%d  reduced median %8.2f ms  unreduced median \
                 %8.2f ms  ratio %.2fx"
                name jobs (1e3 *. on_t.t_med) (1e3 *. off_t.t_med)
                (on_t.t_med /. off_t.t_med);
              (jobs, (on_t, off_t, on_r, off_r)))
            [ 1; 4 ]
        in
        let _, (on1, off1, on_r, off_r) = List.hd per_jobs in
        let s = on_r.Sta.stats in
        let eliminated = s.Awe.Stats.reduce_nodes_eliminated in
        let ratio =
          if !total_nodes = 0 then 0.
          else float_of_int eliminated /. float_of_int !total_nodes
        in
        note
          "%-10s %d nets, %d stage nodes, %d eliminated (%.0f%%); %d \
           parallel, %d series, %d chain, %d star"
          name (List.length nets) !total_nodes eliminated (100. *. ratio)
          s.Awe.Stats.reduce_parallel_merges s.Awe.Stats.reduce_series_merges
          s.Awe.Stats.reduce_chain_lumps s.Awe.Stats.reduce_star_merges;
        (* per-sink accuracy against the unreduced pipeline *)
        let off_nets = Hashtbl.create 64 in
        List.iter
          (fun (nt : Sta.net_timing) ->
            Hashtbl.replace off_nets nt.Sta.net_name nt)
          off_r.Sta.nets;
        let worst_exact = ref 0. and worst_lumped = ref 0. in
        List.iter
          (fun (nt : Sta.net_timing) ->
            match Hashtbl.find_opt off_nets nt.Sta.net_name with
            | None -> ignore (check (nt.Sta.net_name ^ " timed in both") false)
            | Some base ->
              let exact =
                try Hashtbl.find exact_net nt.Sta.net_name
                with Not_found -> false
              in
              let worst = if exact then worst_exact else worst_lumped in
              List.iter2
                (fun (s : Sta.sink_timing) (s0 : Sta.sink_timing) ->
                  let rel a b =
                    abs_float (a -. b) /. Float.max 1e-30 (abs_float b)
                  in
                  worst :=
                    Float.max !worst
                      (Float.max
                         (rel s.Sta.arrival s0.Sta.arrival)
                         (rel s.Sta.net_delay s0.Sta.net_delay)))
                nt.Sta.sinks base.Sta.sinks)
          on_r.Sta.nets;
        note "%-10s worst rel drift: exact nets %.3g, lumped nets %.3g" name
          !worst_exact !worst_lumped;
        ignore
          (check
             (Printf.sprintf "%s: exact transforms bit-close (%.3g > 1e-12)"
                name !worst_exact)
             (!worst_exact <= 1e-12));
        ignore
          (check
             (Printf.sprintf "%s: lumped nets within 10%% (%.3g)" name
                !worst_lumped)
             (!worst_lumped <= 0.1));
        (* pattern-tier delta: cold sparse analyze on fresh caches *)
        let pattern_hits reduce =
          let cache = Sta.create_cache () in
          let r =
            Sta.analyze ~model:Sta.Awe_auto ~sparse:true ~jobs:1 ~reduce
              ~cache d
          in
          r.Sta.stats.Awe.Stats.cache_pattern_hits
        in
        let ph_on = pattern_hits true and ph_off = pattern_hits false in
        note "%-10s cold pattern hits: %d reduced vs %d unreduced" name ph_on
          ph_off;
        ( (ratio, on1, off1, ph_on, ph_off),
          ( name,
            Obj
              [ ("stage_nodes", Int !total_nodes);
                ("nodes_eliminated", Int eliminated);
                ("reduction_ratio", num "%.3f" ratio);
                ("worst_exact_rel", num "%.3g" !worst_exact);
                ("worst_lumped_rel", num "%.3g" !worst_lumped);
                ("cold_pattern_hits_reduced", Int ph_on);
                ("cold_pattern_hits_unreduced", Int ph_off);
                ( "jobs",
                  by_jobs
                    (fun (on_t, off_t, _, _) ->
                      Obj
                        [ ("reduced_ms", ms_spread on_t);
                          ("unreduced_ms", ms_spread off_t);
                          ("ratio", num "%.3f" (on_t.t_med /. off_t.t_med)) ])
                    per_jobs ) ] ) ))
      designs
  in
  (* the ladder is the headline: most of it must vanish, the cold
     analyze must get materially cheaper, and the pattern tier must
     not lose hits to reduction *)
  let lratio, lon1, loff1, lph_on, lph_off = fst (List.hd rows) in
  ignore
    (check
       (Printf.sprintf "ladder eliminates >= 50%% of stage nodes (%.0f%%)"
          (100. *. lratio))
       (lratio >= 0.5));
  ignore
    (check
       (Printf.sprintf
          "ladder reduced cold <= 0.7x unreduced at jobs=1 (%.2fx)"
          (lon1.t_med /. loff1.t_med))
       (lon1.t_med <= 0.7 *. loff1.t_med));
  ignore
    (check
       (Printf.sprintf "ladder pattern hits don't regress (%d vs %d)" lph_on
          lph_off)
       (lph_on >= lph_off));
  claim
    ~paper:"solve the small equivalent circuit, not the extracted one"
    "ladder: %.0f%% of nodes eliminated, cold analyze %.2fx, pattern hits \
     %d vs %d"
    (100. *. lratio)
    (lon1.t_med /. loff1.t_med)
    lph_on lph_off;
  write_bench ~smoke "sta_reduce"
    [ ("reps", Int reps); ("designs", Obj (List.map snd rows)) ]

(* ------------------------------------------------------------------ *)

let () =
  run_scenarios
    ~title:"AWEsim reproduction harness — every table and figure of the paper"
    [ ungated [ "fig7" ] fig7; ungated [ "fig12" ] fig12;
      ungated [ "fig14" ] fig14; ungated [ "fig15" ] fig15;
      ungated [ "table1" ] table1; ungated [ "fig17"; "fig18" ] fig17_18;
      ungated [ "fig19" ] fig19; ungated [ "fig20_21" ] fig20_21;
      ungated [ "fig23" ] fig23; ungated [ "fig24" ] fig24;
      ungated [ "table2_fig26"; "fig26" ] table2_fig26;
      ungated [ "fig27" ] fig27; ungated [ "eq56" ] eq56;
      ungated [ "scaling" ] scaling; ungated [ "ablation" ] ablation;
      ungated [ "shifted" ] shifted; ungated [ "sta" ] sta_bench;
      ungated [ "sta_batch" ] sta_batch;
      gated "sta_parallel" sta_parallel; gated "sta_cache" sta_cache_bench;
      gated "sta_scale" sta_scale; gated "sta_eco" sta_eco;
      gated "sta_corners" sta_corners; gated "sta_reduce" sta_reduce;
      gated "lint_scale" lint_scale; ungated [ "verify" ] verify_bench ]
