(* Tests for the AWE core: moments, matching, residues, error
   estimation, the driver, and the paper-specific claims. *)

open Circuit

let check_close ?(tol = 1e-9) msg expected actual =
  Alcotest.(check (float tol)) msg expected actual

let rel ?(tol = 1e-6) msg expected actual =
  Alcotest.(check bool)
    (Printf.sprintf "%s (want %.6g got %.6g)" msg expected actual)
    true
    (Float.abs (expected -. actual) <= tol *. Float.max 1. (Float.abs expected))

(* exact-vs-approx error of the transient part, the paper's error
   measure: both waveforms relative to the exact final value *)
let transient_error wex wap =
  let vf = Waveform.final_value wex in
  let num = Waveform.l2_error wex wap in
  let den =
    Waveform.l2_norm
      (Waveform.create wex.Waveform.times
         (Array.map (fun v -> v -. vf) wex.Waveform.values))
  in
  num /. den

let simulate_node sys node ~t_stop ~steps =
  let r = Transim.Transient.simulate sys ~t_stop ~steps in
  Transim.Transient.node_waveform r node

(* ------------------------------------------------------------------ *)
(* Moments *)

let single_rc ~r ~c ~v =
  let b = Netlist.create () in
  Netlist.add_v b "v1" "in" "0" (Element.Step { v0 = 0.; v1 = v });
  Netlist.add_r b "r1" "in" "out" r;
  Netlist.add_c b "c1" "out" "0" c;
  let out = Netlist.node b "out" in
  (Mna.build (Netlist.freeze b), out)

let moments_of sys node count =
  let e = Awe.Moments.make sys in
  let op0 = Dc.initial sys in
  let op0p = Dc.at_zero_plus sys op0 in
  let prob = Awe.Moments.base_problem e op0p in
  Awe.Moments.mu
    (Awe.Moments.vectors e prob ~count)
    ~out_var:(Mna.node_var sys node)

let test_moments_single_rc () =
  (* mu_j = -v (-RC)^j analytically *)
  let r = 1e3 and c = 1e-6 and v = 5. in
  let sys, out = single_rc ~r ~c ~v in
  let mu = moments_of sys out 5 in
  Array.iteri
    (fun j got ->
      rel ~tol:1e-12
        (Printf.sprintf "mu_%d" j)
        (-.v *. Float.pow (-.(r *. c)) (float_of_int j))
        got)
    mu

let test_moments_fig4_first_moment_is_elmore () =
  let f4 = Samples.fig4 () in
  let sys = Mna.build f4.Samples.circuit in
  let mu = moments_of sys f4.Samples.n4 2 in
  check_close "mu0 = -5" (-5.) mu.(0);
  check_close ~tol:1e-12 "mu1 = 5 T_D" (5. *. Samples.fig4_elmore_n4) mu.(1)

let test_moments_charge_neutral_on_floating_group () =
  let f22, _ = Samples.fig22 () in
  let sys = Mna.build f22.Samples.circuit in
  let e = Awe.Moments.make sys in
  let op0 = Dc.initial sys in
  let op0p = Dc.at_zero_plus sys op0 in
  let prob = Awe.Moments.base_problem e op0p in
  (* the homogeneous initial vector carries no conserved group charge *)
  let q = Mna.charges_of sys prob.Awe.Moments.x_h0 in
  check_close ~tol:1e-22 "neutral x_h0" 0. q.(0);
  (* and stays neutral under the recursion *)
  let w1 = Awe.Moments.advance e prob.Awe.Moments.x_h0 in
  let q1 = Mna.charges_of sys w1 in
  check_close ~tol:1e-30 "neutral w1" 0. q1.(0)

let test_ramp_kernel_zero_state () =
  let f4 = Samples.fig4 () in
  let sys = Mna.build f4.Samples.circuit in
  let e = Awe.Moments.make sys in
  let k = Awe.Moments.ramp_kernel e ~src_col:0 in
  (* x(0) = 0 means x_h(0) = -d0 *)
  Alcotest.(check bool) "x_h0 = -d0" true
    (Linalg.Vec.approx_equal ~tol:1e-12
       (Linalg.Vec.neg k.Awe.Moments.d0)
       k.Awe.Moments.x_h0)

let test_mu_slope_rc () =
  (* at 0+ an RC output starts rising at V/(RC); transient slope is
     xdot - d1 = V/(RC) for a step (d1 = 0) *)
  let sys, out = single_rc ~r:1e3 ~c:1e-6 ~v:5. in
  let e = Awe.Moments.make sys in
  let op0 = Dc.initial sys in
  let op0p = Dc.at_zero_plus sys op0 in
  let prob = Awe.Moments.base_problem e op0p in
  match Awe.Moments.mu_slope prob ~out_var:(Mna.node_var sys out) with
  | Some s -> rel ~tol:1e-9 "slope" 5e3 s
  | None -> Alcotest.fail "slope should be available"

(* ------------------------------------------------------------------ *)
(* Moment matching *)

let mu_from poles residues count =
  Array.init count (fun j ->
      List.fold_left2
        (fun acc p k -> acc +. (k *. Float.pow (1. /. p) (float_of_int j)))
        0. poles residues)

let test_match_two_poles () =
  let mu = mu_from [ -2.; -30. ] [ 1.5; -0.5 ] 4 in
  let terms = Awe.Moment_match.fit ~q:2 mu in
  let poles = Awe.Approx.transient_poles terms in
  (match poles with
  | [ p1; p2 ] ->
    rel ~tol:1e-9 "p1" (-2.) p1.Linalg.Cx.re;
    rel ~tol:1e-9 "p2" (-30.) p2.Linalg.Cx.re
  | _ -> Alcotest.fail "expected 2 poles");
  (* time-domain evaluation matches the source model *)
  List.iter
    (fun t ->
      rel ~tol:1e-9
        (Printf.sprintf "value at %g" t)
        ((1.5 *. exp (-2. *. t)) -. (0.5 *. exp (-30. *. t)))
        (Awe.Approx.eval_transient terms t))
    [ 0.; 0.1; 0.5; 2. ]

let test_match_scaling_invariance () =
  let sorted terms =
    List.sort Linalg.Cx.compare_by_magnitude
      (Awe.Approx.transient_poles terms)
  in
  (* O(1) poles: scaled and unscaled paths agree *)
  let mu_slow = mu_from [ -2.; -30. ] [ 4.; 1. ] 4 in
  List.iter2
    (fun pa pb ->
      Alcotest.(check bool)
        (Format.asprintf "poles equal (%a vs %a)" Linalg.Cx.pp pa
           Linalg.Cx.pp pb)
        true
        (Linalg.Cx.abs Linalg.Cx.(pa -: pb) < 1e-6 *. Linalg.Cx.abs pa))
    (sorted (Awe.Moment_match.fit ~scale:true ~q:2 mu_slow))
    (sorted (Awe.Moment_match.fit ~scale:false ~q:2 mu_slow));
  (* GHz-scale poles (paper Section 3.5): the unscaled moment matrix
     collapses numerically while the scaled one succeeds *)
  let mu_fast = mu_from [ -2e9; -3e10 ] [ 4.; 1. ] 4 in
  (match Awe.Moment_match.fit ~scale:false ~q:2 mu_fast with
  | _ -> Alcotest.fail "unscaled fit should collapse"
  | exception Awe.Moment_match.No_fit _ -> ());
  match sorted (Awe.Moment_match.fit ~scale:true ~q:2 mu_fast) with
  | [ p1; p2 ] ->
    rel ~tol:1e-6 "fast p1" (-2e9) p1.Linalg.Cx.re;
    rel ~tol:1e-6 "fast p2" (-3e10) p2.Linalg.Cx.re
  | _ -> Alcotest.fail "expected two poles"

let test_match_detects_instability () =
  (* moments of a growing exponential *)
  let mu = mu_from [ 2. ] [ 1. ] 2 in
  match Awe.Moment_match.fit ~q:1 mu with
  | _ -> Alcotest.fail "expected Unstable"
  | exception Awe.Moment_match.Unstable _ -> ()

let test_match_degenerate_detected () =
  let mu = mu_from [ -2. ] [ 1. ] 4 in
  match Awe.Moment_match.fit ~q:2 mu with
  | _ -> Alcotest.fail "expected No_fit"
  | exception Awe.Moment_match.No_fit _ -> ()

let test_match_slope_condition () =
  (* q = 2 with slope matching: model value and slope at 0 are pinned *)
  let mu = mu_from [ -1.; -8. ] [ 2.; 1. ] 4 in
  let slope = (2. *. -1.) +. (1. *. -8.) in
  let terms = Awe.Moment_match.fit ~slope ~q:2 mu in
  let dt = 1e-7 in
  let v0 = Awe.Approx.eval_transient terms 0. in
  let v1 = Awe.Approx.eval_transient terms dt in
  rel ~tol:1e-9 "initial value" 3. v0;
  rel ~tol:1e-4 "initial slope" slope ((v1 -. v0) /. dt)

let test_scale_factor () =
  let mu = mu_from [ -1e9 ] [ 1. ] 4 in
  rel ~tol:1e-9 "tau estimate" 1e-9 (Awe.Moment_match.scale_factor mu)

let test_condition_number_improves_with_scaling () =
  let mu = mu_from [ -1e9; -4e9; -4e10 ] [ 1.; 2.; 0.5 ] 6 in
  let unscaled = Awe.Moment_match.condition_number ~scale:false ~q:3 mu in
  let scaled = Awe.Moment_match.condition_number ~scale:true ~q:3 mu in
  Alcotest.(check bool)
    (Printf.sprintf "scaling helps (%g vs %g)" scaled unscaled)
    true (scaled > unscaled)

(* ------------------------------------------------------------------ *)
(* Approx evaluation *)

let test_approx_complex_pair_real_eval () =
  let terms =
    [ { Awe.Approx.pole = Linalg.Cx.make (-1.) 3.;
        coeffs = [| Linalg.Cx.make 0.5 (-0.2) |] };
      { Awe.Approx.pole = Linalg.Cx.make (-1.) (-3.);
        coeffs = [| Linalg.Cx.make 0.5 0.2 |] } ]
  in
  (* 2 Re(k e^(pt)) with k = 0.5-0.2j, p = -1+3j *)
  List.iter
    (fun t ->
      let expected =
        2. *. exp (-.t) *. ((0.5 *. cos (3. *. t)) +. (0.2 *. sin (3. *. t)))
      in
      rel ~tol:1e-9
        (Printf.sprintf "t=%g" t)
        expected
        (Awe.Approx.eval_transient terms t))
    [ 0.; 0.3; 1.; 2.5 ]

let test_approx_repeated_pole_eval () =
  (* (2 + 3t) e^(-t): coeffs are [2; 3] with the t^i/i! convention *)
  let terms =
    [ { Awe.Approx.pole = Linalg.Cx.re (-1.);
        coeffs = [| Linalg.Cx.re 2.; Linalg.Cx.re 3. |] } ]
  in
  List.iter
    (fun t ->
      rel ~tol:1e-12
        (Printf.sprintf "t=%g" t)
        ((2. +. (3. *. t)) *. exp (-.t))
        (Awe.Approx.eval_transient terms t))
    [ 0.; 0.5; 1.; 4. ]

let test_zeros_two_pole () =
  (* N(s) = k1 (s - p2) + k2 (s - p1): zero at (k1 p2 + k2 p1)/(k1+k2) *)
  let terms =
    [ { Awe.Approx.pole = Linalg.Cx.re (-2.); coeffs = [| Linalg.Cx.re 3. |] };
      { Awe.Approx.pole = Linalg.Cx.re (-10.); coeffs = [| Linalg.Cx.re 1. |] } ]
  in
  (match Awe.Approx.zeros terms with
  | [ z ] ->
    rel ~tol:1e-9 "zero location" ((3. *. -10. +. 1. *. -2.) /. 4.) z.Linalg.Cx.re
  | zs -> Alcotest.failf "expected one zero, got %d" (List.length zs));
  (* single pole: no zeros *)
  Alcotest.(check int) "single pole" 0
    (List.length
       (Awe.Approx.zeros
          [ { Awe.Approx.pole = Linalg.Cx.re (-1.);
              coeffs = [| Linalg.Cx.re 2. |] } ]))

let test_zeros_of_fitted_models () =
  (* the order-2 fit of a monotone RC response has one real zero lying
     between its two poles (the zero is the residue-weighted average of
     the opposite poles); with a nonequilibrium IC the zero moves,
     reweighting how much each natural frequency contributes (the
     mechanism the paper describes in Section 5.2) *)
  let fit v_c6 =
    let f = Samples.fig16 ~v_c6 ~wave:(Element.Step { v0 = 0.; v1 = 5. }) () in
    let sys = Mna.build f.Samples.circuit in
    (Awe.approximate sys ~node:f.Samples.output ~q:2).Awe.base
  in
  let zero_of terms =
    match Awe.Approx.zeros terms with
    | [ z ] -> z
    | zs -> Alcotest.failf "expected one zero, got %d" (List.length zs)
  in
  let no_ic = fit 0. in
  (match Awe.Approx.transient_poles no_ic with
  | [ p1; p2 ] ->
    (* the smooth no-IC response barely excites the fast pole, so the
       fit's zero sits near it (within a factor of 2), far above the
       dominant pole *)
    let z = zero_of no_ic in
    let ratio = Linalg.Cx.abs z /. Linalg.Cx.abs p2 in
    Alcotest.(check bool)
      (Format.asprintf "zero %a shadows the fast pole %a (ratio %.2f)"
         Linalg.Cx.pp z Linalg.Cx.pp p2 ratio)
      true
      (ratio > 0.5 && ratio < 2. && Linalg.Cx.abs z > 3. *. Linalg.Cx.abs p1)
  | _ -> Alcotest.fail "expected two poles");
  let with_ic = fit 5.0 in
  let z0 = zero_of no_ic and z1 = zero_of with_ic in
  Alcotest.(check bool)
    (Format.asprintf "IC moves the zero (%a vs %a)" Linalg.Cx.pp z0
       Linalg.Cx.pp z1)
    true
    (Linalg.Cx.abs (Linalg.Cx.( -: ) z0 z1) > 0.05 *. Linalg.Cx.abs z0)

let test_response_superposition () =
  (* two shifted copies of a decaying component cancel in steady state *)
  let tr = [ { Awe.Approx.pole = Linalg.Cx.re (-1.); coeffs = [| Linalg.Cx.re (-1.) |] } ] in
  let comps =
    [ { Awe.Approx.t_shift = 0.; scale = 1.; p_const = 0.; p_slope = 1.; transient = tr };
      { Awe.Approx.t_shift = 1.; scale = -1.; p_const = 0.; p_slope = 1.; transient = tr } ]
  in
  (* before t = 1 only the first component is active:
     v = t - e^(-t) *)
  rel ~tol:1e-12 "at 0.5" (0.5 -. exp (-0.5)) (Awe.Approx.eval comps 0.5);
  (* after t = 1 the slopes cancel *)
  rel ~tol:1e-12 "at 3"
    ((3. -. exp (-3.)) -. (2. -. exp (-2.)))
    (Awe.Approx.eval comps 3.);
  check_close ~tol:1e-12 "steady value" 1. (Awe.Approx.steady_value comps)

let test_steady_value_rejects_unbounded () =
  let comps =
    [ { Awe.Approx.t_shift = 0.; scale = 2.; p_const = 0.; p_slope = 1.; transient = [] } ]
  in
  match Awe.Approx.steady_value comps with
  | _ -> Alcotest.fail "expected failure"
  | exception Invalid_argument _ -> ()

let test_crossing_time_bisection () =
  let tr = [ { Awe.Approx.pole = Linalg.Cx.re (-1e3); coeffs = [| Linalg.Cx.re (-5.) |] } ] in
  let comps = [ { Awe.Approx.t_shift = 0.; scale = 1.; p_const = 5.; p_slope = 0.; transient = tr } ] in
  match Awe.Approx.crossing_time comps ~threshold:2.5 ~t_max:0.01 with
  | Some t -> rel ~tol:1e-9 "50% crossing" (log 2. /. 1e3) t
  | None -> Alcotest.fail "expected crossing"

(* ------------------------------------------------------------------ *)
(* Error estimation *)

let term p k =
  { Awe.Approx.pole = Linalg.Cx.re p; coeffs = [| Linalg.Cx.re k |] }

let test_l2_norm_single_exponential () =
  (* integral of (k e^(pt))^2 = k^2 / (-2p) *)
  rel ~tol:1e-12 "norm" (4. /. 6.) (Awe.Error_est.l2_norm_sq [ term (-3.) 2. ])

let test_l2_distance_identical_zero () =
  let a = [ term (-1.) 2.; term (-5.) (-1.) ] in
  check_close ~tol:1e-12 "self distance" 0. (Awe.Error_est.l2_distance a a)

let test_l2_distance_analytic () =
  (* || e^-t - e^-2t ||^2 = 1/2 - 2/3 + 1/4 = 1/12 *)
  rel ~tol:1e-12 "distance" (sqrt (1. /. 12.))
    (Awe.Error_est.l2_distance [ term (-1.) 1. ] [ term (-2.) 1. ])

let test_l2_complex_pair_norm () =
  (* f(t) = 2 e^-t cos t; ||f||^2 = 4 * integral e^-2t cos^2 t = 4*(1/4 + ...) *)
  let a =
    [ { Awe.Approx.pole = Linalg.Cx.make (-1.) 1.; coeffs = [| Linalg.Cx.one |] };
      { Awe.Approx.pole = Linalg.Cx.make (-1.) (-1.); coeffs = [| Linalg.Cx.one |] } ]
  in
  (* integral of 4 e^-2t cos^2 t dt = 4 * (1/4 + 2/(4*(4+4))) ... compute
     directly: cos^2 = (1+cos 2t)/2; int e^-2t/2 = 1/4;
     int e^-2t cos(2t)/2 = (1/2) * 2/(4+4) = 1/8; total 4*(1/4+1/8) = 1.5 *)
  rel ~tol:1e-12 "complex pair norm" 1.5 (Awe.Error_est.l2_norm_sq a)

let test_relative_error_orders_correctly () =
  let exact = [ term (-1.) 5.; term (-10.) 1. ] in
  let good = [ term (-1.05) 5.1; term (-9.) 0.9 ] in
  let bad = [ term (-2.) 6. ] in
  let eg = Awe.Error_est.relative_error ~exact good in
  let eb = Awe.Error_est.relative_error ~exact bad in
  Alcotest.(check bool)
    (Printf.sprintf "good < bad (%g vs %g)" eg eb)
    true (eg < eb)

let test_cauchy_bound_dominates_exact () =
  let exact = [ term (-1.) 5.; term (-10.) 1.; term (-40.) 0.3 ] in
  let approx = [ term (-1.1) 5.2; term (-12.) 1.1 ] in
  let exact_err = Awe.Error_est.relative_error ~exact approx in
  let bound = Awe.Error_est.cauchy_bound ~exact approx in
  Alcotest.(check bool)
    (Printf.sprintf "bound %g >= exact %g" bound exact_err)
    true (bound >= exact_err -. 1e-12)

let test_cauchy_repeated_pole_fallback () =
  (* a confluent (repeated-pole) chain has no simple-pole pairing, so
     the bound must fall back to the exact relative error — on either
     side of the comparison — instead of mispairing or failing *)
  let confluent =
    [ { Awe.Approx.pole = Linalg.Cx.re (-1.);
        coeffs = [| Linalg.Cx.re 5.; Linalg.Cx.re 2. |] };
      term (-10.) 1. ]
  in
  let simple = [ term (-1.2) 5.4; term (-9.) 1.1 ] in
  check_close ~tol:1e-15 "fallback (repeated exact)"
    (Awe.Error_est.relative_error ~exact:confluent simple)
    (Awe.Error_est.cauchy_bound ~exact:confluent simple);
  let exact = [ term (-1.) 5.; term (-10.) 1. ] in
  check_close ~tol:1e-15 "fallback (repeated approx)"
    (Awe.Error_est.relative_error ~exact confluent)
    (Awe.Error_est.cauchy_bound ~exact confluent)

let test_error_est_rejects_unstable () =
  match Awe.Error_est.l2_norm_sq [ term 1. 1. ] with
  | _ -> Alcotest.fail "expected rejection"
  | exception Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* Driver: paper claims *)

let test_awe_q1_is_elmore_on_fig4 () =
  let f4 = Samples.fig4 () in
  let sys = Mna.build f4.Samples.circuit in
  let a = Awe.approximate sys ~node:f4.Samples.n4 ~q:1 in
  (match Awe.poles a with
  | [ p ] -> rel ~tol:1e-9 "pole = -1/T_D" (-1. /. 7e-4) p.Linalg.Cx.re
  | _ -> Alcotest.fail "expected one pole");
  (match Awe.residues a with
  | [ (_, k) ] -> rel ~tol:1e-9 "residue" (-5.) k.Linalg.Cx.re
  | _ -> Alcotest.fail "expected one residue");
  check_close ~tol:1e-9 "v(0) = 0" 0. (Awe.eval a 0.);
  check_close ~tol:1e-9 "steady = 5" 5. (Awe.steady_state a);
  rel ~tol:1e-9 "elmore equivalent" 7e-4 (Awe.elmore_equivalent sys ~node:f4.Samples.n4)

let test_awe_final_value_always_exact () =
  (* moment-0 matching forces the exact final value (paper 3.3) *)
  List.iter
    (fun q ->
      let f9 = Samples.fig9 () in
      let sys = Mna.build f9.Samples.circuit in
      let a = Awe.approximate sys ~node:f9.Samples.n4 ~q in
      rel ~tol:1e-9
        (Printf.sprintf "fig9 steady at q=%d" q)
        (5. *. 4. /. 7.) (Awe.steady_state a))
    [ 1; 2; 3 ]

let test_awe_exact_at_full_order () =
  (* fig4 has 4 states: q=4 must recover the actual poles *)
  let f4 = Samples.fig4 () in
  let sys = Mna.build f4.Samples.circuit in
  let a = Awe.approximate sys ~node:f4.Samples.n4 ~q:4 in
  let got = Awe.poles a in
  (* actual poles via the eigensolver on -G^-1 C *)
  let g = Mna.g sys and c = Mna.c sys in
  let f = Linalg.Lu.factor g in
  let n = Mna.size sys in
  let m =
    Linalg.Matrix.init n n (fun _ _ -> 0.)
  in
  for j = 0 to n - 1 do
    let col = Linalg.Lu.solve f (Linalg.Matrix.col c j) in
    for i = 0 to n - 1 do
      m.(i).(j) <- -.col.(i)
    done
  done;
  let actual = Linalg.Eigen.circuit_poles m in
  List.iter2
    (fun got want ->
      Alcotest.(check bool) "pole match" true
        (Linalg.Cx.abs Linalg.Cx.(got -: want) < 1e-4 *. Linalg.Cx.abs want))
    got actual

let test_awe_waveform_matches_sim_fig4 () =
  let f4 = Samples.fig4 () in
  let sys = Mna.build f4.Samples.circuit in
  let wex = simulate_node sys f4.Samples.n4 ~t_stop:5e-3 ~steps:4000 in
  let a2 = Awe.approximate sys ~node:f4.Samples.n4 ~q:2 in
  let w2 = Awe.waveform a2 ~t_stop:5e-3 ~samples:4001 in
  Alcotest.(check bool) "q2 close" true (transient_error wex w2 < 0.02)

let test_awe_ramp_superposition_fig4 () =
  let wave = Element.Ramp { v0 = 0.; v1 = 5.; t_delay = 0.; t_rise = 1e-3 } in
  let f4 = Samples.fig4 ~wave () in
  let sys = Mna.build f4.Samples.circuit in
  let wex = simulate_node sys f4.Samples.n4 ~t_stop:6e-3 ~steps:6000 in
  let a1 = Awe.approximate sys ~node:f4.Samples.n4 ~q:1 in
  let w1 = Awe.waveform a1 ~t_stop:6e-3 ~samples:6001 in
  Alcotest.(check bool) "ramp q1 close" true (transient_error wex w1 < 0.08);
  (* the paper's unit-ramp residue: r * tau = 5e3 * 0.7e-3 = 3.5 (eq. 64) *)
  let a = Awe.approximate sys ~node:f4.Samples.n4 ~q:1 in
  match a.Awe.response with
  | _ :: { Awe.Approx.transient = [ t ]; scale; _ } :: _ ->
    rel ~tol:1e-6 "kernel residue * slope" 3.5
      (Float.abs (scale *. t.Awe.Approx.coeffs.(0).Linalg.Cx.re))
  | _ -> Alcotest.fail "expected a break component"

let test_awe_slope_matching_removes_glitch () =
  let wave = Element.Ramp { v0 = 0.; v1 = 5.; t_delay = 0.; t_rise = 1e-3 } in
  let f4 = Samples.fig4 ~wave () in
  let sys = Mna.build f4.Samples.circuit in
  let a_plain = Awe.approximate sys ~node:f4.Samples.n4 ~q:1 in
  let a_slope =
    Awe.approximate
      ~options:{ Awe.default_options with match_slope = true }
      sys ~node:f4.Samples.n4 ~q:1
  in
  let dt = 1e-7 in
  let slope_plain = (Awe.eval a_plain dt -. Awe.eval a_plain 0.) /. dt in
  let slope_match = (Awe.eval a_slope dt -. Awe.eval a_slope 0.) /. dt in
  (* paper Section 4.3: the plain approximation starts with a wrong
     (negative) slope; the m_(-2)-matched one starts flat *)
  Alcotest.(check bool) "plain glitch present" true (slope_plain < -1.);
  Alcotest.(check bool)
    (Printf.sprintf "matched slope ~ 0 (%g)" slope_match)
    true
    (Float.abs slope_match < 20.)

let test_awe_nonequilibrium_ic () =
  let f16 = Samples.fig16 ~v_c6:5.0 ~wave:(Element.Step { v0 = 0.; v1 = 5. }) () in
  let sys = Mna.build f16.Samples.circuit in
  let wex = simulate_node sys f16.Samples.output ~t_stop:5e-9 ~steps:4000 in
  let a2 = Awe.approximate sys ~node:f16.Samples.output ~q:2 in
  let w2 = Awe.waveform a2 ~t_stop:5e-9 ~samples:4001 in
  Alcotest.(check bool) "ic q2 close" true (transient_error wex w2 < 0.05)

let test_awe_charge_sharing_glitch () =
  (* input held low, C6 charged: the nonmonotone waveform of Figs 20-21 *)
  let f = Samples.fig16 ~v_c6:5.0 ~wave:(Element.Dc 0.) () in
  let sys = Mna.build f.Samples.circuit in
  let wex = simulate_node sys f.Samples.output ~t_stop:5e-9 ~steps:4000 in
  Alcotest.(check bool) "glitch nonmonotone" false (Waveform.is_monotone wex);
  (* first order cannot fit (zero initial transient value, nonzero area) *)
  (match Awe.approximate sys ~node:f.Samples.output ~q:1 with
  | _ -> Alcotest.fail "expected degeneracy at q=1"
  | exception Awe.Degenerate _ -> ());
  let a2 = Awe.approximate sys ~node:f.Samples.output ~q:2 in
  let w2 = Awe.waveform a2 ~t_stop:5e-9 ~samples:4001 in
  (* error relative to the glitch's own scale *)
  let peak = Array.fold_left Float.max 0. wex.Waveform.values in
  Alcotest.(check bool) "q2 captures glitch" true
    (Waveform.max_abs_error wex w2 < 0.2 *. peak)

let test_awe_floating_cap_victim () =
  let f22, victim = Samples.fig22 () in
  let sys = Mna.build f22.Samples.circuit in
  let a = Awe.approximate sys ~node:victim ~q:3 in
  (* charge conservation fixes the victim's final value exactly *)
  rel ~tol:1e-6 "victim steady" 1.25 (Awe.steady_state a);
  let wex = simulate_node sys victim ~t_stop:8e-9 ~steps:6000 in
  let wap = Awe.waveform a ~t_stop:8e-9 ~samples:6001 in
  Alcotest.(check bool) "victim waveform" true
    (Waveform.max_abs_error wex wap < 0.05)

let test_awe_complex_poles_fig25 () =
  let f25 = Samples.fig25 () in
  let sys = Mna.build f25.Samples.circuit in
  let a2 = Awe.approximate sys ~node:f25.Samples.out ~q:2 in
  (match Awe.poles a2 with
  | [ p1; p2 ] ->
    Alcotest.(check bool) "complex pair" true
      (Float.abs p1.Linalg.Cx.im > 0.
      && Linalg.Cx.approx_equal p1 (Linalg.Cx.conj p2))
  | _ -> Alcotest.fail "expected 2 poles");
  (* the approximation detects the overshoot (paper Fig. 26) *)
  let w2 = Awe.waveform a2 ~t_stop:10e-9 ~samples:4001 in
  Alcotest.(check bool) "overshoot detected" true (Waveform.overshoot w2 > 0.3)

let test_awe_error_decreases_with_order_fig25 () =
  let f25 = Samples.fig25 () in
  let sys = Mna.build f25.Samples.circuit in
  let wex = simulate_node sys f25.Samples.out ~t_stop:10e-9 ~steps:8000 in
  let err q =
    let a = Awe.approximate sys ~node:f25.Samples.out ~q in
    transient_error wex (Awe.waveform a ~t_stop:10e-9 ~samples:8001)
  in
  let e1 = err 1 and e2 = err 2 and e4 = err 4 in
  Alcotest.(check bool)
    (Printf.sprintf "e1 %.3f > e2 %.3f > e4 %.3f" e1 e2 e4)
    true
    (e1 > e2 && e2 > e4 && e4 < 0.05)

let test_awe_auto_escalates () =
  let f25 = Samples.fig25 () in
  let sys = Mna.build f25.Samples.circuit in
  let a, err = Awe.auto ~tol:0.02 sys ~node:f25.Samples.out in
  Alcotest.(check bool) "order above 1" true (a.Awe.q > 1);
  Alcotest.(check bool) (Printf.sprintf "err %.4f" err) true (err <= 0.02)

let test_awe_error_estimate_tracks_truth () =
  let f25 = Samples.fig25 () in
  let sys = Mna.build f25.Samples.circuit in
  let wex = simulate_node sys f25.Samples.out ~t_stop:10e-9 ~steps:8000 in
  let est = Awe.error_estimate sys ~node:f25.Samples.out ~q:2 in
  let a2 = Awe.approximate sys ~node:f25.Samples.out ~q:2 in
  let true_err = transient_error wex (Awe.waveform a2 ~t_stop:10e-9 ~samples:8001) in
  Alcotest.(check bool)
    (Printf.sprintf "estimate %.3f within 3x of truth %.3f" est true_err)
    true
    (est > true_err /. 3. && est < true_err *. 3.)

let test_awe_rejects_ground_output () =
  let f4 = Samples.fig4 () in
  let sys = Mna.build f4.Samples.circuit in
  match Awe.approximate sys ~node:0 ~q:1 with
  | _ -> Alcotest.fail "expected rejection"
  | exception Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* Baselines *)

let test_elmore_walk_fig4 () =
  let f4 = Samples.fig4 () in
  let tds = Awe.Elmore.delays f4.Samples.circuit in
  check_close ~tol:1e-12 "n1" 4e-4 tds.(f4.Samples.n1);
  check_close ~tol:1e-12 "n2" 5e-4 tds.(f4.Samples.n2);
  check_close ~tol:1e-12 "n3" 6e-4 tds.(f4.Samples.n3);
  check_close ~tol:1e-12 "n4" 7e-4 tds.(f4.Samples.n4)

let test_elmore_rejects_non_tree () =
  let f25 = Samples.fig25 () in
  match Awe.Elmore.delays f25.Samples.circuit with
  | _ -> Alcotest.fail "expected rejection"
  | exception Invalid_argument _ -> ()

let test_elmore_scaled_matches_eq3 () =
  (* fig9: scaled Elmore = -mu1/mu0; verify against direct moments *)
  let f9 = Samples.fig9 () in
  let sys = Mna.build f9.Samples.circuit in
  let mu = moments_of sys f9.Samples.n4 2 in
  rel ~tol:1e-12 "scaled delay" (-.(mu.(1) /. mu.(0)))
    (Awe.Elmore.scaled_delay sys ~node:f9.Samples.n4)

let test_elmore_matches_q1_awe_on_random_trees () =
  for seed = 1 to 8 do
    let ckt, leaf = Samples.random_rc_tree ~seed ~n:12 () in
    let sys = Mna.build ckt in
    let td = Awe.Elmore.delay ckt leaf in
    let a = Awe.approximate sys ~node:leaf ~q:1 in
    match Awe.poles a with
    | [ p ] -> rel ~tol:1e-9 "q1 pole is -1/T_D" (-1. /. td) p.Linalg.Cx.re
    | _ -> Alcotest.fail "expected one pole"
  done

let test_tree_link_matches_engine () =
  List.iter
    (fun seed ->
      let ckt, leaf = Samples.random_rc_tree ~seed ~n:15 () in
      let sys = Mna.build ckt in
      let mu_engine = moments_of sys leaf 6 in
      let tl = Awe.Tree_link.prepare ckt in
      let mu_tl = Awe.Tree_link.moments tl ~node:leaf ~count:6 in
      Array.iteri
        (fun j v ->
          rel ~tol:1e-9 (Printf.sprintf "seed %d mu_%d" seed j) v mu_tl.(j))
        mu_engine)
    [ 3; 4; 5 ]

let test_tree_link_with_links_matches_engine () =
  let f9 = Samples.fig9 () in
  let sys = Mna.build f9.Samples.circuit in
  let mu_engine = moments_of sys f9.Samples.n4 6 in
  let tl = Awe.Tree_link.prepare f9.Samples.circuit in
  Alcotest.(check int) "one link" 1 (Awe.Tree_link.link_count tl);
  let mu_tl = Awe.Tree_link.moments tl ~node:f9.Samples.n4 ~count:6 in
  Array.iteri
    (fun j v -> rel ~tol:1e-9 (Printf.sprintf "mu_%d" j) v mu_tl.(j))
    mu_engine

let test_tree_link_eq56 () =
  (* the first moment vector is 5 * T_D per node (eq. 56) *)
  let f4 = Samples.fig4 () in
  let tl = Awe.Tree_link.prepare f4.Samples.circuit in
  let w1 = Awe.Tree_link.moment_vector tl ~k:1 in
  let tds = Awe.Elmore.delays f4.Samples.circuit in
  List.iter
    (fun node ->
      rel ~tol:1e-12 "eq56" (5. *. tds.(node)) w1.(node))
    [ f4.Samples.n1; f4.Samples.n2; f4.Samples.n3; f4.Samples.n4 ]

let test_tree_link_rejects_out_of_scope () =
  let f25 = Samples.fig25 () in
  (match Awe.Tree_link.prepare f25.Samples.circuit with
  | _ -> Alcotest.fail "expected rejection"
  | exception Awe.Tree_link.Unsupported _ -> ());
  let f22, _ = Samples.fig22 () in
  match Awe.Tree_link.prepare f22.Samples.circuit with
  | _ -> Alcotest.fail "floating caps rejected"
  | exception Awe.Tree_link.Unsupported _ -> ()

let test_two_pole_fig4 () =
  let f4 = Samples.fig4 () in
  let sys = Mna.build f4.Samples.circuit in
  let tp = Awe.Two_pole.fit sys ~node:f4.Samples.n4 in
  Alcotest.(check bool) "stable" true (tp.Awe.Two_pole.p1 < 0. && tp.Awe.Two_pole.p2 < 0.);
  rel ~tol:1e-9 "final" 5. tp.Awe.Two_pole.v_final;
  (* its 50% delay is close to the simulated one *)
  let wex = simulate_node sys f4.Samples.n4 ~t_stop:5e-3 ~steps:4000 in
  match (Awe.Two_pole.delay_50pct tp, Waveform.delay_50pct wex) with
  | Some d1, Some d2 ->
    Alcotest.(check bool)
      (Printf.sprintf "delays close (%.4g vs %.4g)" d1 d2)
      true
      (Float.abs (d1 -. d2) < 0.05 *. d2)
  | _ -> Alcotest.fail "both delays should exist"

let test_two_pole_rejects_complex () =
  let f25 = Samples.fig25 () in
  let sys = Mna.build f25.Samples.circuit in
  match Awe.Two_pole.fit sys ~node:f25.Samples.out with
  | _ -> Alcotest.fail "expected Not_applicable"
  | exception Awe.Two_pole.Not_applicable _ -> ()

(* ------------------------------------------------------------------ *)
(* Properties *)

let prop_q1_equals_elmore =
  QCheck2.Test.make ~name:"q=1 AWE pole is -1/Elmore on random RC trees"
    ~count:40
    QCheck2.Gen.(int_range 2 20)
    (fun n ->
      let ckt, leaf = Samples.random_rc_tree ~seed:(1000 + n) ~n () in
      let sys = Mna.build ckt in
      let td = Awe.Elmore.delay ckt leaf in
      match Awe.poles (Awe.approximate sys ~node:leaf ~q:1) with
      | [ p ] -> Float.abs ((p.Linalg.Cx.re *. td) +. 1.) < 1e-6
      | _ -> false)

let prop_final_value_exact =
  QCheck2.Test.make
    ~name:"AWE final value equals DC solution on random meshes" ~count:30
    QCheck2.Gen.(pair (int_range 2 12) (int_range 0 4))
    (fun (n, extra) ->
      let ckt, leaf = Samples.random_rc_mesh ~seed:(n + (17 * extra)) ~n ~extra () in
      let sys = Mna.build ckt in
      let op = Dc.initial sys in
      ignore op;
      match Awe.approximate sys ~node:leaf ~q:2 with
      | a ->
        (* DC solution with the source at its final value *)
        let solver = Mna.dc_factor sys in
        let rhs = Linalg.Matrix.mul_vec (Mna.b sys) (Mna.u_at sys 1e9) in
        let x = Mna.dc_solve solver ~rhs ~charges:(Array.make (Mna.charge_group_count sys) 0.) in
        let want = Mna.voltage sys x leaf in
        Float.abs (Awe.steady_state a -. want) < 1e-6 *. Float.max 1. (Float.abs want)
      | exception (Awe.Degenerate _ | Awe.Unstable_fit _) -> true)

let prop_moments_match_tree_link =
  QCheck2.Test.make
    ~name:"tree/link moments equal engine moments on random trees"
    ~count:25
    QCheck2.Gen.(int_range 2 25)
    (fun n ->
      let ckt, leaf = Samples.random_rc_tree ~seed:(31 * n) ~n () in
      let sys = Mna.build ckt in
      let mu_e = moments_of sys leaf 5 in
      let tl = Awe.Tree_link.prepare ckt in
      let mu_t = Awe.Tree_link.moments tl ~node:leaf ~count:5 in
      Array.for_all2
        (fun a b ->
          Float.abs (a -. b) <= 1e-7 *. Float.max 1e-30 (Float.abs a))
        mu_e mu_t)

let prop_tree_link_eq56_on_random_trees =
  QCheck2.Test.make
    ~name:"tree/link w_1 is the Elmore vector on random trees (eq. 56)"
    ~count:25
    QCheck2.Gen.(int_range 2 25)
    (fun n ->
      let ckt, _ = Samples.random_rc_tree ~seed:(53 * n) ~n () in
      let tl = Awe.Tree_link.prepare ckt in
      let w1 = Awe.Tree_link.moment_vector tl ~k:1 in
      let tds = Awe.Elmore.delays ckt in
      (* the sample trees drive a unit step, so w_1(i) = 1 * T_D(i) *)
      Array.for_all2
        (fun td w ->
          td <= 0. || Float.abs (w -. td) <= 1e-9 *. Float.max 1e-30 td)
        tds w1)

let prop_two_pole_tracks_sim_on_random_trees =
  QCheck2.Test.make
    ~name:"two-pole baseline tracks simulation on random RC trees"
    ~count:20
    QCheck2.Gen.(int_range 2 10)
    (fun n ->
      let ckt, leaf = Samples.random_rc_tree ~seed:(101 * n) ~n () in
      let sys = Mna.build ckt in
      match Awe.Two_pole.fit sys ~node:leaf with
      | exception Awe.Two_pole.Not_applicable _ ->
        (* outside the Chu/Horowitz model's scope — the situation the
           paper motivates AWE with; not a fit failure *)
        true
      | tp ->
        tp.Awe.Two_pole.p1 < 0.
        && tp.Awe.Two_pole.p2 < 0.
        && Float.abs (tp.Awe.Two_pole.v_final -. 1.) <= 1e-6
        &&
        let t_stop = 10. *. Awe.Elmore.delay ckt leaf in
        let wex = simulate_node sys leaf ~t_stop ~steps:4000 in
        (match (Awe.Two_pole.delay_50pct tp, Waveform.delay_50pct wex) with
        | Some d1, Some d2 -> Float.abs (d1 -. d2) <= 0.1 *. d2
        | _ -> false))

let prop_cauchy_bound_dominates_on_random_trees =
  QCheck2.Test.make
    ~name:"Cauchy pairing bound dominates the exact error on random trees"
    ~count:25
    QCheck2.Gen.(int_range 3 15)
    (fun n ->
      let ckt, leaf = Samples.random_rc_tree ~seed:(211 * n) ~n () in
      let sys = Mna.build ckt in
      let engine = Awe.Engine.create sys in
      let a, _ = Awe.Engine.auto engine ~node:leaf in
      match Awe.Engine.approximate engine ~node:leaf ~q:(a.Awe.q + 1) with
      | exception (Awe.Degenerate _ | Awe.Unstable_fit _) -> true
      | a1 ->
        let exact = a1.Awe.base in
        let err = Awe.Error_est.relative_error ~exact a.Awe.base in
        let bound = Awe.Error_est.cauchy_bound ~exact a.Awe.base in
        (* below rounding noise both quantities compare two numerically
           identical models *)
        err <= 1e-6 || bound >= err *. (1. -. 1e-6))

let prop_sparse_moments_match_dense =
  QCheck2.Test.make ~name:"sparse moment path equals dense path" ~count:20
    QCheck2.Gen.(int_range 2 15)
    (fun n ->
      let ckt, leaf = Samples.random_rc_mesh ~seed:(7 * n) ~n ~extra:2 () in
      let sys = Mna.build ckt in
      let mu_of sparse =
        let e = Awe.Moments.make ~sparse sys in
        let op0 = Dc.initial sys in
        let op0p = Dc.at_zero_plus sys op0 in
        let prob = Awe.Moments.base_problem e op0p in
        Awe.Moments.mu
          (Awe.Moments.vectors e prob ~count:5)
          ~out_var:(Mna.node_var sys leaf)
      in
      let d = mu_of false and s = mu_of true in
      Array.for_all2
        (fun a b -> Float.abs (a -. b) <= 1e-7 *. Float.max 1e-30 (Float.abs a))
        d s)

let prop_waveform_matches_sim =
  QCheck2.Test.make
    ~name:"order-3 AWE tracks simulation on random RC trees" ~count:15
    QCheck2.Gen.(int_range 3 12)
    (fun n ->
      let ckt, leaf = Samples.random_rc_tree ~seed:(53 * n) ~n () in
      let sys = Mna.build ckt in
      match Awe.approximate sys ~node:leaf ~q:3 with
      | a ->
        let td = Awe.Elmore.delay ckt leaf in
        let t_stop = 10. *. td in
        let wex = simulate_node sys leaf ~t_stop ~steps:2000 in
        let wap = Awe.waveform a ~t_stop ~samples:2001 in
        transient_error wex wap < 0.05
      | exception (Awe.Degenerate _ | Awe.Unstable_fit _) ->
        (* acceptable: escalation simply continues in auto mode *)
        true)

let test_branch_current_observable () =
  (* RC charging current through the source: i(t) = -(V/R) e^(-t/RC)
     in the branch convention (current flows + -> - inside the source,
     i.e. opposite to the delivered load current) *)
  let b = Netlist.create () in
  Netlist.add_v b "v1" "in" "0" (Element.Step { v0 = 0.; v1 = 5. });
  Netlist.add_r b "r1" "in" "out" 1e3;
  Netlist.add_c b "c1" "out" "0" 1e-6;
  let ckt = Netlist.freeze b in
  let sys = Mna.build ckt in
  let a =
    Awe.approximate_observable sys ~observable:(Awe.Branch_current 0) ~q:1
  in
  (match Awe.poles a with
  | [ p ] -> rel ~tol:1e-9 "current pole" (-1000.) p.Linalg.Cx.re
  | _ -> Alcotest.fail "expected one pole");
  rel ~tol:1e-9 "current at 0+" (-5e-3) (Awe.eval a 0.);
  check_close ~tol:1e-12 "steady current" 0. (Awe.steady_state a);
  (* total delivered charge = integral of load current = C dV *)
  let r = Transim.Transient.simulate sys ~t_stop:10e-3 ~steps:4000 in
  let wi = Transim.Transient.branch_current_waveform r 0 in
  let awe_q =
    (* integral of the AWE current: k / (-p) *)
    match (Awe.residues a, Awe.poles a) with
    | [ (_, k) ], [ p ] -> k.Linalg.Cx.re /. -.p.Linalg.Cx.re
    | _ -> nan
  in
  let sim_q =
    let acc = ref 0. in
    Array.iteri
      (fun i t ->
        if i > 0 then
          acc :=
            !acc
            +. (0.5
               *. (t -. wi.Waveform.times.(i - 1))
               *. (wi.Waveform.values.(i) +. wi.Waveform.values.(i - 1))))
      wi.Waveform.times;
    !acc
  in
  rel ~tol:1e-3 "delivered charge" sim_q awe_q;
  rel ~tol:1e-6 "charge = -C dV" (-5e-6) awe_q

let test_branch_current_rejects_resistor () =
  let f4 = Samples.fig4 () in
  let sys = Mna.build f4.Samples.circuit in
  (* element 1 is r1: no branch unknown *)
  match
    Awe.approximate_observable sys ~observable:(Awe.Branch_current 1) ~q:1
  with
  | _ -> Alcotest.fail "expected rejection"
  | exception Invalid_argument _ -> ()

let prop_full_order_recovers_actual_poles =
  QCheck2.Test.make
    ~name:"full-order AWE recovers the exact poles of random RC trees"
    ~count:20
    QCheck2.Gen.(int_range 2 6)
    (fun n ->
      let ckt, leaf = Samples.random_rc_tree ~seed:(977 * n) ~n () in
      let sys = Mna.build ckt in
      (* actual poles via the eigensolver *)
      let g = Mna.g sys and c = Mna.c sys in
      let f = Linalg.Lu.factor g in
      let sz = Mna.size sys in
      let m = Linalg.Matrix.create sz sz in
      for j = 0 to sz - 1 do
        let col = Linalg.Lu.solve f (Linalg.Matrix.col c j) in
        for i = 0 to sz - 1 do
          m.(i).(j) <- -.col.(i)
        done
      done;
      let actual = Linalg.Eigen.circuit_poles m in
      match Awe.approximate sys ~node:leaf ~q:n with
      | a ->
        (* every recovered pole must coincide with some actual pole;
           the fit may legitimately return fewer than n poles when one
           is unobservable at the leaf (the moment matrix degenerates
           and the order self-reduces) *)
        let got = Awe.poles a in
        (* the dominant poles are well conditioned in the moment data;
           the fastest ones may carry larger matching error at full
           order, so check the three most dominant tightly *)
        let dominant = List.filteri (fun i _ -> i < 3) got in
        dominant <> []
        && List.for_all
             (fun p ->
               List.exists
                 (fun w ->
                   Linalg.Cx.abs (Linalg.Cx.( -: ) p w)
                   <= 1e-3 *. Linalg.Cx.abs w)
                 actual)
             dominant
      | exception (Awe.Degenerate _ | Awe.Unstable_fit _) -> true)

let prop_delay_monotone_in_load =
  QCheck2.Test.make
    ~name:"adding load capacitance never speeds a node up" ~count:25
    QCheck2.Gen.(float_range 10e-15 500e-15)
    (fun extra ->
      let build extra_cap =
        let b = Netlist.create () in
        Netlist.add_v b "v" "in" "0" (Element.Step { v0 = 0.; v1 = 1. });
        Netlist.add_r b "r1" "in" "x" 500.;
        Netlist.add_c b "c1" "x" "0" 100e-15;
        Netlist.add_r b "r2" "x" "y" 500.;
        Netlist.add_c b "c2" "y" "0" (100e-15 +. extra_cap);
        let y = Netlist.node b "y" in
        (Mna.build (Netlist.freeze b), y)
      in
      let delay extra_cap =
        let sys, y = build extra_cap in
        let a = Awe.approximate sys ~node:y ~q:2 in
        match Awe.delay a ~threshold:0.5 ~t_max:1e-8 with
        | Some d -> d
        | None -> infinity
      in
      delay extra >= delay 0. -. 1e-15)

(* ------------------------------------------------------------------ *)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let test_shifted_moments_analytic () =
  (* single RC about s0: mu_j = -v z^j with z = 1/(p - s0), p = -1/RC *)
  let sys, out = single_rc ~r:1e3 ~c:1e-6 ~v:5. in
  let s0 = -500. in
  let e = Awe.Moments.make ~shift:s0 sys in
  rel ~tol:1e-12 "engine records shift" s0 (Awe.Moments.shift e);
  let op0 = Dc.initial sys in
  let op0p = Dc.at_zero_plus sys op0 in
  let prob = Awe.Moments.base_problem e op0p in
  let mu =
    Awe.Moments.mu
      (Awe.Moments.vectors e prob ~count:4)
      ~out_var:(Mna.node_var sys out)
  in
  let z = 1. /. (-1000. -. s0) in
  Array.iteri
    (fun j v ->
      rel ~tol:1e-12
        (Printf.sprintf "shifted mu_%d" j)
        (-5. *. Float.pow z (float_of_int j))
        v)
    mu;
  (* the fit maps z back to the true pole *)
  match
    Awe.Approx.transient_poles (Awe.Moment_match.fit ~shift:s0 ~q:1 mu)
  with
  | [ p ] -> rel ~tol:1e-9 "pole recovered" (-1000.) p.Linalg.Cx.re
  | _ -> Alcotest.fail "expected one pole"

let test_shifted_full_order_invariance () =
  (* at full order the recovered poles are exact for ANY expansion
     point; compare shift 0 and a shift of the order of the poles *)
  let f4 = Samples.fig4 () in
  let sys = Mna.build f4.Samples.circuit in
  let poles_with s0 =
    let opts = { Awe.default_options with Awe.expansion_shift = s0 } in
    Awe.poles (Awe.approximate ~options:opts sys ~node:f4.Samples.n4 ~q:4)
  in
  List.iter2
    (fun p0 ps ->
      Alcotest.(check bool)
        (Format.asprintf "pole %a invariant" Linalg.Cx.pp p0)
        true
        (Linalg.Cx.abs (Linalg.Cx.( -: ) p0 ps)
        < 1e-5 *. Linalg.Cx.abs p0))
    (poles_with 0.) (poles_with (-3e3))

let test_shifted_waveform_still_matches () =
  let f = Samples.fig25 () in
  let sys = Mna.build f.Samples.circuit in
  let wex = simulate_node sys f.Samples.out ~t_stop:10e-9 ~steps:8000 in
  let opts = { Awe.default_options with Awe.expansion_shift = -1e9 } in
  let a = Awe.approximate ~options:opts sys ~node:f.Samples.out ~q:4 in
  let w = Awe.waveform a ~t_stop:10e-9 ~samples:8001 in
  Alcotest.(check bool) "shifted q4 accurate" true
    (transient_error wex w < 0.05)

let test_awe_repeated_pole_cascade () =
  (* two identical RC sections isolated by a unity-gain buffer: exactly
     repeated pole; the response is 1 - (1 + t/tau) e^(-t/tau), which
     requires the confluent residue system (paper, eqs. 26-29) *)
  let b = Netlist.create () in
  Netlist.add_v b "v1" "in" "0" (Element.Step { v0 = 0.; v1 = 1. });
  Netlist.add_r b "r1" "in" "x" 1e3;
  Netlist.add_c b "c1" "x" "0" 1e-6;
  Netlist.add_vcvs b "e1" "y" "0" "x" "0" 1.;
  Netlist.add_r b "r2" "y" "out" 1e3;
  Netlist.add_c b "c2" "out" "0" 1e-6;
  let out = Netlist.node b "out" in
  let sys = Mna.build (Netlist.freeze b) in
  let a = Awe.approximate sys ~node:out ~q:2 in
  Alcotest.(check bool) "confluent chain present" true
    (List.exists (fun t -> Array.length t.Awe.Approx.coeffs > 1) a.Awe.base);
  let tau = 1e-3 in
  List.iter
    (fun t ->
      rel ~tol:1e-12
        (Printf.sprintf "double-pole value at %g" t)
        (1. -. ((1. +. (t /. tau)) *. exp (-.t /. tau)))
        (Awe.eval a t))
    [ 0.; 0.3e-3; 1e-3; 3e-3 ]

(* ------------------------------------------------------------------ *)
(* Batch (multi-output) *)

let test_batch_matches_individual () =
  let f = Samples.fig16 ~wave:(Element.Step { v0 = 0.; v1 = 5. }) () in
  let sys = Mna.build f.Samples.circuit in
  let nodes = Array.to_list f.Samples.nodes in
  let batched = Awe.Batch.approximate_all sys ~nodes ~q:2 in
  List.iter
    (fun r ->
      match r.Awe.Batch.outcome with
      | Awe.Batch.Approximation a ->
        let solo = Awe.approximate sys ~node:r.Awe.Batch.node ~q:2 in
        List.iter2
          (fun p p' ->
            Alcotest.(check bool) "pole agrees" true
              (Linalg.Cx.abs Linalg.Cx.(p -: p') <= 1e-9 *. Linalg.Cx.abs p))
          (Awe.poles a) (Awe.poles solo)
      | Awe.Batch.Failed _ -> (
        (* the individual path must fail identically *)
        match Awe.approximate sys ~node:r.Awe.Batch.node ~q:2 with
        | _ -> Alcotest.fail "batch failed where individual succeeded"
        | exception (Awe.Degenerate _ | Awe.Unstable_fit _) -> ()))
    batched

let test_batch_elmore_all_fig4 () =
  let f = Samples.fig4 () in
  let sys = Mna.build f.Samples.circuit in
  let all = Awe.Batch.elmore_all sys in
  let tds = Awe.Elmore.delays f.Samples.circuit in
  List.iter
    (fun (node, td) ->
      if node <> 1 (* the driven node "in" has no meaningful delay *) then
        rel ~tol:1e-9 (Printf.sprintf "node %d" node) tds.(node) td)
    (List.filter (fun (n, _) -> tds.(n) > 0.) all)

let test_batch_delays_ordered_along_path () =
  let f = Samples.fig4 () in
  let sys = Mna.build f.Samples.circuit in
  let nodes = [ f.Samples.n1; f.Samples.n3; f.Samples.n4 ] in
  match
    Awe.Batch.delays_all sys ~nodes ~q:2 ~threshold:2.5 ~t_max:5e-3
  with
  | [ (_, Some d1); (_, Some d3); (_, Some d4) ] ->
    Alcotest.(check bool) "delays increase downstream" true
      (d1 < d3 && d3 < d4)
  | _ -> Alcotest.fail "all three delays should exist"

let test_batch_rejects_ground () =
  let f = Samples.fig4 () in
  let sys = Mna.build f.Samples.circuit in
  match Awe.Batch.approximate_all sys ~nodes:[ 0 ] ~q:1 with
  | _ -> Alcotest.fail "expected rejection"
  | exception Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* Shared engine: incremental order escalation over one factorization *)

let test_engine_incremental_auto_matches_scratch () =
  (* adaptive escalation on a shared engine must return exactly what a
     recompute-from-scratch loop (fresh factorization and fresh moments
     at every order) returns *)
  let f25 = Samples.fig25 () in
  let sys = Mna.build f25.Samples.circuit in
  let node = f25.Samples.out in
  let tol = 0.02 and q_max = 8 in
  let e = Awe.Engine.create sys in
  let a_inc, err_inc = Awe.Engine.auto ~tol ~q_max e ~node in
  (* scratch loop: the pre-refactor policy, one-shot API per order *)
  let rec scratch q best =
    if q > q_max then
      match best with
      | Some (a, err) -> (a, err)
      | None -> Alcotest.fail "scratch loop found no fit"
    else
      match
        let a = Awe.approximate sys ~node ~q in
        (a, Awe.error_estimate sys ~node ~q)
      with
      | a, err when err <= tol -> (a, err)
      | a, err ->
        let best =
          match best with
          | Some (_, be) when be <= err -> best
          | _ -> Some (a, err)
        in
        scratch (q + 1) best
      | exception (Awe.Unstable_fit _ | Awe.Degenerate _) ->
        scratch (q + 1) best
  in
  let a_scr, err_scr = scratch 1 None in
  Alcotest.(check int) "same order" a_scr.Awe.q a_inc.Awe.q;
  rel ~tol:1e-12 "same error estimate" err_scr err_inc;
  List.iter2
    (fun p p' ->
      Alcotest.(check bool) "same poles" true
        (Linalg.Cx.abs Linalg.Cx.(p -: p') <= 1e-12 *. Linalg.Cx.abs p))
    (Awe.poles a_scr) (Awe.poles a_inc);
  List.iter
    (fun t ->
      rel ~tol:1e-12
        (Printf.sprintf "same waveform at %g" t)
        (Awe.eval a_scr t) (Awe.eval a_inc t))
    [ 0.; 1e-9; 3e-9; 8e-9 ]

let test_engine_escalation_cost_two_solves () =
  (* going q -> q+1 on a shared sequence costs exactly two extra
     forward/back substitutions (the two new moments) *)
  let f25 = Samples.fig25 () in
  let sys = Mna.build f25.Samples.circuit in
  let node = f25.Samples.out in
  let e = Awe.Engine.create sys in
  let s0 = Awe.Stats.snapshot () in
  ignore (Awe.Engine.approximate e ~node ~q:2);
  let s1 = Awe.Stats.snapshot () in
  ignore (Awe.Engine.approximate e ~node ~q:3);
  let s2 = Awe.Stats.snapshot () in
  (* order 2 needs mu_0..mu_3 = w_0..w_3; w_0 is the free homogeneous
     start, so three substitutions *)
  Alcotest.(check int) "q=2 costs three solves" 3
    (Awe.Stats.diff s1 s0).Awe.Stats.moment_solves;
  Alcotest.(check int) "q=2->3 costs two more" 2
    (Awe.Stats.diff s2 s1).Awe.Stats.moment_solves;
  (* and re-fitting any order from the shared prefix is free *)
  ignore (Awe.Engine.approximate e ~node ~q:2);
  ignore (Awe.Engine.elmore e ~node);
  let s3 = Awe.Stats.snapshot () in
  Alcotest.(check int) "refit is free" 0
    (Awe.Stats.diff s3 s2).Awe.Stats.moment_solves

let test_engine_auto_solve_budget () =
  (* acceptance bound: Awe.auto reaching order q spends one
     factorization and at most 2q+2 moment solves *)
  let f25 = Samples.fig25 () in
  let sys = Mna.build f25.Samples.circuit in
  let s0 = Awe.Stats.snapshot () in
  let a, _ = Awe.auto ~tol:0.02 sys ~node:f25.Samples.out in
  let d = Awe.Stats.diff (Awe.Stats.snapshot ()) s0 in
  Alcotest.(check int) "one factorization" 1 d.Awe.Stats.factorizations;
  Alcotest.(check bool)
    (Printf.sprintf "solves %d <= 2q+2 = %d" d.Awe.Stats.moment_solves
       ((2 * a.Awe.q) + 2))
    true
    (d.Awe.Stats.moment_solves <= (2 * a.Awe.q) + 2);
  Alcotest.(check bool) "escalations recorded" true
    (d.Awe.Stats.order_escalations >= a.Awe.q - 1)

(* ------------------------------------------------------------------ *)
(* Stats: the merge algebra and scoped windows that make parallel
   counter totals schedule-independent *)

let snap ?(phases = []) f m fi r e b =
  { Awe.Stats.factorizations = f;
    moment_solves = m;
    fits = fi;
    fit_retries = r;
    order_escalations = e;
    mna_builds = b;
    cache_exact_hits = 0;
    cache_pattern_hits = 0;
    cache_misses = 0;
    cache_bytes = 0;
    reduce_nodes_eliminated = 0;
    reduce_elements_eliminated = 0;
    reduce_parallel_merges = 0;
    reduce_series_merges = 0;
    reduce_chain_lumps = 0;
    reduce_star_merges = 0;
    eco_edits = 0;
    eco_dirty_nets = 0;
    eco_reused_nets = 0;
    eco_full_fallbacks = 0;
    phase_seconds = phases }

let stat_ints (s : Awe.Stats.snapshot) =
  Awe.Stats.
    ( s.factorizations,
      s.moment_solves,
      s.fits,
      s.fit_retries,
      s.order_escalations,
      s.mna_builds,
      s.cache_exact_hits,
      s.cache_pattern_hits,
      s.cache_misses,
      s.cache_bytes )

let test_stats_merge_algebra () =
  let phases (s : Awe.Stats.snapshot) =
    List.sort compare s.Awe.Stats.phase_seconds
  in
  let a = snap ~phases:[ ("lu", 0.25) ] 1 2 3 4 5 6
  and b = snap ~phases:[ ("lu", 0.5); ("fit", 1.) ] 10 20 30 40 50 60
  and c = snap 100 0 1 0 2 7 in
  let m1 = Awe.Stats.merge a b and m2 = Awe.Stats.merge b a in
  Alcotest.(check bool) "commutative counters" true
    (stat_ints m1 = stat_ints m2);
  Alcotest.(check bool) "commutative phases" true (phases m1 = phases m2);
  check_close "shared phase sums" 0.75
    (List.assoc "lu" m1.Awe.Stats.phase_seconds);
  check_close "disjoint phase kept" 1.
    (List.assoc "fit" m1.Awe.Stats.phase_seconds);
  let l = Awe.Stats.merge (Awe.Stats.merge a b) c
  and r = Awe.Stats.merge a (Awe.Stats.merge b c) in
  Alcotest.(check bool) "associative" true
    (stat_ints l = stat_ints r && phases l = phases r);
  Alcotest.(check bool) "zero is the identity" true
    (stat_ints (Awe.Stats.merge a Awe.Stats.zero) = stat_ints a
    && stat_ints (Awe.Stats.merge Awe.Stats.zero a) = stat_ints a)

let test_stats_scoped_window () =
  (* pre-existing counts must not leak into the window, and the window
     must fold back so an enclosing snapshot/diff still sees the work *)
  Awe.Stats.record_fit ();
  let s0 = Awe.Stats.snapshot () in
  let f25 = Samples.fig25 () in
  let sys = Mna.build f25.Samples.circuit in
  let _, w =
    Awe.Stats.scoped (fun () -> Awe.auto ~tol:0.02 sys ~node:f25.Samples.out)
  in
  Alcotest.(check int) "window: exactly one factorization" 1
    w.Awe.Stats.factorizations;
  Alcotest.(check bool) "window: no leaked prior counts" true
    (w.Awe.Stats.moment_solves >= 2);
  let d = Awe.Stats.diff (Awe.Stats.snapshot ()) s0 in
  Alcotest.(check bool) "outer diff sees the scoped work" true
    (stat_ints d = stat_ints w)

let test_stats_scoped_exception_safe () =
  let s0 = Awe.Stats.snapshot () in
  (match
     Awe.Stats.scoped (fun () ->
         Awe.Stats.record_mna_build ();
         failwith "boom")
   with
  | _ -> Alcotest.fail "expected the exception to re-raise"
  | exception Failure _ -> ());
  let d = Awe.Stats.diff (Awe.Stats.snapshot ()) s0 in
  Alcotest.(check int) "window folded back on exception" 1
    d.Awe.Stats.mna_builds

(* ------------------------------------------------------------------ *)
(* AC analysis *)

let test_ac_exact_rc_lowpass () =
  (* RC lowpass: |H| = 1/sqrt(1 + (w RC)^2) *)
  let b = Netlist.create () in
  Netlist.add_v b "v" "in" "0" (Element.Step { v0 = 0.; v1 = 1. });
  Netlist.add_r b "r" "in" "out" 1e3;
  Netlist.add_c b "c" "out" "0" 1e-6;
  let out = Netlist.node b "out" in
  let sys = Mna.build (Netlist.freeze b) in
  let omegas = [| 1.; 1e3; 1e4 |] in
  let h = Awe.Ac.exact_response sys ~src_col:0 ~node:out ~omegas in
  Array.iteri
    (fun i omega ->
      let want = 1. /. sqrt (1. +. ((omega *. 1e-3) ** 2.)) in
      rel ~tol:1e-9 (Printf.sprintf "|H| at %g" omega) want
        (Linalg.Cx.abs h.(i)))
    omegas

let test_ac_model_matches_exact_at_low_freq () =
  (* the reduced model's transfer function must agree with the exact
     one near s = 0 (that is what moment matching means) *)
  let f = Samples.fig16 ~wave:(Element.Step { v0 = 0.; v1 = 5. }) () in
  let sys = Mna.build f.Samples.circuit in
  let a = Awe.approximate sys ~node:f.Samples.output ~q:3 in
  (* normalize: the source is 5 V, the model's dc gain is v_inf/v_src *)
  let omegas = Awe.Ac.log_sweep ~f_start:1e6 ~f_stop:3e8 ~points:12 in
  let exact = Awe.Ac.exact_response sys ~src_col:0 ~node:f.Samples.output ~omegas in
  (* model response of the unit-step-normalized transient *)
  let scaled_terms =
    List.map
      (fun t ->
        { t with
          Awe.Approx.coeffs =
            Array.map (fun k -> Linalg.Cx.scale 0.2 k) t.Awe.Approx.coeffs })
      a.Awe.base
  in
  let model =
    Awe.Ac.model_response ~dc_gain:(Awe.steady_state a /. 5.) scaled_terms
      ~omegas
  in
  Array.iteri
    (fun idx _ ->
      let diff = Linalg.Cx.abs (Linalg.Cx.( -: ) exact.(idx) model.(idx)) in
      Alcotest.(check bool)
        (Printf.sprintf "H match at %g rad/s (diff %g)" omegas.(idx) diff)
        true (diff < 0.02))
    omegas

let test_ac_low_frequency_is_dc () =
  (* H(jw) -> DC transfer as w -> 0 *)
  let f9 = Samples.fig9 () in
  let sys = Mna.build f9.Samples.circuit in
  let h =
    Awe.Ac.exact_response sys ~src_col:0 ~node:f9.Samples.n4 ~omegas:[| 1. |]
  in
  (* divider 4/(3+4) *)
  rel ~tol:1e-6 "dc gain" (4. /. 7.) (Linalg.Cx.abs h.(0))

let test_cauchy_with_complex_pairs () =
  (* exact has a complex pair + a real pole; approx has only the pair:
     the bound must still dominate the exact error *)
  let pair sigma omega k =
    [ { Awe.Approx.pole = Linalg.Cx.make sigma omega;
        coeffs = [| Linalg.Cx.make k 0.1 |] };
      { Awe.Approx.pole = Linalg.Cx.make sigma (-.omega);
        coeffs = [| Linalg.Cx.make k (-0.1) |] } ]
  in
  let exact = pair (-1.) 3. 1. @ [ term (-8.) 0.4 ] in
  let approx = pair (-1.1) 2.9 1.05 in
  let e = Awe.Error_est.relative_error ~exact approx in
  let b = Awe.Error_est.cauchy_bound ~exact approx in
  Alcotest.(check bool)
    (Printf.sprintf "bound %.3f >= exact %.3f" b e)
    true (b >= e -. 1e-12)

let test_ac_log_sweep () =
  let w = Awe.Ac.log_sweep ~f_start:1. ~f_stop:100. ~points:3 in
  rel ~tol:1e-12 "start" (2. *. Float.pi) w.(0);
  rel ~tol:1e-12 "mid" (20. *. Float.pi) w.(1);
  rel ~tol:1e-12 "stop" (200. *. Float.pi) w.(2);
  Alcotest.check_raises "bad sweep"
    (Invalid_argument "Ac.log_sweep: need 0 < f_start < f_stop") (fun () ->
      ignore (Awe.Ac.log_sweep ~f_start:10. ~f_stop:1. ~points:5))

let test_ac_magnitude_db () =
  let db = Awe.Ac.magnitude_db [| Linalg.Cx.re 10.; Linalg.Cx.re 0.1 |] in
  rel ~tol:1e-9 "20 dB" 20. db.(0);
  rel ~tol:1e-9 "-20 dB" (-20.) db.(1)

(* [Awe.Cache.bytes] is a running count kept by publish and remove:
   a duplicate adds nothing, caches sharing one pattern store all read
   that store's count, a shard's publications count once absorbed, and
   removing every entry brings the count back to zero. *)
let test_cache_bytes_running_count () =
  let module C = Awe.Cache in
  let tridiag n =
    Sparse.Csr.of_dense
      (Linalg.Matrix.init n n (fun i j ->
           if i = j then 2. else if abs (i - j) = 1 then -1. else 0.))
  in
  let s3 = Sparse.Slu.symbolic (tridiag 3)
  and s5 = Sparse.Slu.symbolic (tridiag 5) in
  let patterns = C.create_patterns () in
  let a : float array C.t = C.create ~patterns ()
  and b : float array C.t = C.create ~patterns () in
  let count msg expected c = Alcotest.(check int) msg expected (C.bytes c) in
  let published msg expected r = Alcotest.(check bool) msg expected r in
  count "empty" 0 a;
  published "exact" true (C.publish_exact a ~hash:"h" ~signature:"s1" [| 1. |]);
  let e1 = C.bytes a in
  Alcotest.(check bool) "an entry counts" true (e1 > 0);
  published "duplicate exact" false
    (C.publish_exact a ~hash:"h" ~signature:"s1" [| 1.; 2.; 3. |]);
  count "duplicate exact adds nothing" e1 a;
  published "second signature" true
    (C.publish_exact a ~hash:"h" ~signature:"s2" [| 1.; 2.; 3. |]);
  let e12 = C.bytes a in
  Alcotest.(check bool) "second entry counts" true (e12 > e1);
  count "exact tier is per cache" 0 b;
  published "symbolic" true (C.publish_symbolic a ~hash:"p" s3);
  let p3 = C.bytes a - e12 in
  Alcotest.(check bool) "a symbolic counts" true (p3 > 0);
  count "the sharer reads the store's count" p3 b;
  published "duplicate symbolic through the sharer" false
    (C.publish_symbolic b ~hash:"p" (Sparse.Slu.symbolic (tridiag 3)));
  count "duplicate symbolic adds nothing" p3 b;
  published "second analysis under the hash" true
    (C.publish_symbolic b ~hash:"p" s5);
  let p35 = C.bytes b in
  Alcotest.(check bool) "second analysis counts" true (p35 > p3);
  count "the publisher's sharer sees it" (e12 + p35) a;
  (* a shard's publication counts as the direct one did *)
  let c : float array C.t = C.create () in
  let sh = C.Shard.create () in
  C.Shard.publish_exact sh ~hash:"h" ~signature:"s1" [| 1. |];
  C.absorb c sh;
  count "absorbed entry" e1 c;
  published "remove exact" true (C.remove_exact a ~hash:"h" ~signature:"s1");
  published "remove exact again" false
    (C.remove_exact a ~hash:"h" ~signature:"s1");
  count "removal subtracts" (e12 - e1 + p35) a;
  published "remove second exact" true
    (C.remove_exact a ~hash:"h" ~signature:"s2");
  Alcotest.(check int) "remove symbolics" 2 (C.remove_symbolic b ~hash:"p");
  count "all removed" 0 a;
  count "all removed, sharer" 0 b;
  published "remove absorbed" true (C.remove_exact c ~hash:"h" ~signature:"s1");
  count "all removed, absorbed" 0 c

let () =
  Alcotest.run "core"
    [ ( "moments",
        [ Alcotest.test_case "single RC analytic" `Quick
            test_moments_single_rc;
          Alcotest.test_case "fig4 first moment" `Quick
            test_moments_fig4_first_moment_is_elmore;
          Alcotest.test_case "floating group neutrality" `Quick
            test_moments_charge_neutral_on_floating_group;
          Alcotest.test_case "ramp kernel zero state" `Quick
            test_ramp_kernel_zero_state;
          Alcotest.test_case "initial slope" `Quick test_mu_slope_rc ] );
      ( "matching",
        [ Alcotest.test_case "two real poles" `Quick test_match_two_poles;
          Alcotest.test_case "scaling invariance" `Quick
            test_match_scaling_invariance;
          Alcotest.test_case "instability detection" `Quick
            test_match_detects_instability;
          Alcotest.test_case "degeneracy detection" `Quick
            test_match_degenerate_detected;
          Alcotest.test_case "slope condition" `Quick
            test_match_slope_condition;
          Alcotest.test_case "scale factor" `Quick test_scale_factor;
          Alcotest.test_case "conditioning" `Quick
            test_condition_number_improves_with_scaling ] );
      ( "approx",
        [ Alcotest.test_case "complex pair evaluation" `Quick
            test_approx_complex_pair_real_eval;
          Alcotest.test_case "repeated pole evaluation" `Quick
            test_approx_repeated_pole_eval;
          Alcotest.test_case "superposition" `Quick
            test_response_superposition;
          Alcotest.test_case "unbounded rejected" `Quick
            test_steady_value_rejects_unbounded;
          Alcotest.test_case "crossing bisection" `Quick
            test_crossing_time_bisection;
          Alcotest.test_case "model zeros" `Quick test_zeros_two_pole;
          Alcotest.test_case "fitted-model zeros" `Quick
            test_zeros_of_fitted_models ] );
      ( "error",
        [ Alcotest.test_case "single exponential norm" `Quick
            test_l2_norm_single_exponential;
          Alcotest.test_case "self distance" `Quick
            test_l2_distance_identical_zero;
          Alcotest.test_case "analytic distance" `Quick
            test_l2_distance_analytic;
          Alcotest.test_case "complex pair norm" `Quick
            test_l2_complex_pair_norm;
          Alcotest.test_case "cauchy repeated-pole fallback" `Quick
            test_cauchy_repeated_pole_fallback;
          Alcotest.test_case "ordering" `Quick
            test_relative_error_orders_correctly;
          Alcotest.test_case "cauchy dominates" `Quick
            test_cauchy_bound_dominates_exact;
          Alcotest.test_case "cauchy with complex pairs" `Quick
            test_cauchy_with_complex_pairs;
          Alcotest.test_case "unstable rejected" `Quick
            test_error_est_rejects_unstable ] );
      ( "driver",
        [ Alcotest.test_case "q1 = Elmore (fig4)" `Quick
            test_awe_q1_is_elmore_on_fig4;
          Alcotest.test_case "final value exact" `Quick
            test_awe_final_value_always_exact;
          Alcotest.test_case "exact at full order" `Quick
            test_awe_exact_at_full_order;
          Alcotest.test_case "fig4 waveform" `Quick
            test_awe_waveform_matches_sim_fig4;
          Alcotest.test_case "ramp superposition" `Quick
            test_awe_ramp_superposition_fig4;
          Alcotest.test_case "slope matching glitch" `Quick
            test_awe_slope_matching_removes_glitch;
          Alcotest.test_case "nonequilibrium IC" `Quick
            test_awe_nonequilibrium_ic;
          Alcotest.test_case "charge-sharing glitch" `Quick
            test_awe_charge_sharing_glitch;
          Alcotest.test_case "floating-cap victim" `Quick
            test_awe_floating_cap_victim;
          Alcotest.test_case "complex poles (fig25)" `Quick
            test_awe_complex_poles_fig25;
          Alcotest.test_case "error vs order (fig25)" `Quick
            test_awe_error_decreases_with_order_fig25;
          Alcotest.test_case "auto escalation" `Quick test_awe_auto_escalates;
          Alcotest.test_case "error estimate sanity" `Quick
            test_awe_error_estimate_tracks_truth;
          Alcotest.test_case "ground output rejected" `Quick
            test_awe_rejects_ground_output;
          Alcotest.test_case "repeated-pole cascade" `Quick
            test_awe_repeated_pole_cascade;
          Alcotest.test_case "shifted moments analytic" `Quick
            test_shifted_moments_analytic;
          Alcotest.test_case "shifted full-order invariance" `Quick
            test_shifted_full_order_invariance;
          Alcotest.test_case "shifted waveform accuracy" `Quick
            test_shifted_waveform_still_matches;
          Alcotest.test_case "branch-current observable" `Quick
            test_branch_current_observable;
          Alcotest.test_case "branch current scope" `Quick
            test_branch_current_rejects_resistor ] );
      ( "baselines",
        [ Alcotest.test_case "elmore walk fig4" `Quick test_elmore_walk_fig4;
          Alcotest.test_case "elmore rejects non-tree" `Quick
            test_elmore_rejects_non_tree;
          Alcotest.test_case "scaled elmore eq3" `Quick
            test_elmore_scaled_matches_eq3;
          Alcotest.test_case "elmore = q1 AWE" `Quick
            test_elmore_matches_q1_awe_on_random_trees;
          Alcotest.test_case "tree/link vs engine" `Quick
            test_tree_link_matches_engine;
          Alcotest.test_case "tree/link with links" `Quick
            test_tree_link_with_links_matches_engine;
          Alcotest.test_case "tree/link eq56" `Quick test_tree_link_eq56;
          Alcotest.test_case "tree/link scope" `Quick
            test_tree_link_rejects_out_of_scope;
          Alcotest.test_case "two-pole fig4" `Quick test_two_pole_fig4;
          Alcotest.test_case "two-pole rejects complex" `Quick
            test_two_pole_rejects_complex ] );
      ( "batch",
        [ Alcotest.test_case "matches individual" `Quick
            test_batch_matches_individual;
          Alcotest.test_case "elmore_all" `Quick test_batch_elmore_all_fig4;
          Alcotest.test_case "path delays ordered" `Quick
            test_batch_delays_ordered_along_path;
          Alcotest.test_case "ground rejected" `Quick
            test_batch_rejects_ground ] );
      ( "shared_engine",
        [ Alcotest.test_case "incremental auto = scratch" `Quick
            test_engine_incremental_auto_matches_scratch;
          Alcotest.test_case "escalation costs two solves" `Quick
            test_engine_escalation_cost_two_solves;
          Alcotest.test_case "auto solve budget" `Quick
            test_engine_auto_solve_budget ] );
      ( "stats",
        [ Alcotest.test_case "merge algebra" `Quick test_stats_merge_algebra;
          Alcotest.test_case "scoped window" `Quick test_stats_scoped_window;
          Alcotest.test_case "scoped exception safety" `Quick
            test_stats_scoped_exception_safe ] );
      ( "cache",
        [ Alcotest.test_case "bytes is a running count" `Quick
            test_cache_bytes_running_count ] );
      ( "ac",
        [ Alcotest.test_case "exact RC lowpass" `Quick
            test_ac_exact_rc_lowpass;
          Alcotest.test_case "model matches exact near s=0" `Quick
            test_ac_model_matches_exact_at_low_freq;
          Alcotest.test_case "low-frequency limit" `Quick
            test_ac_low_frequency_is_dc;
          Alcotest.test_case "log sweep" `Quick test_ac_log_sweep;
          Alcotest.test_case "magnitude dB" `Quick test_ac_magnitude_db ] );
      ( "properties",
        qsuite
          [ prop_q1_equals_elmore;
            prop_full_order_recovers_actual_poles;
            prop_delay_monotone_in_load;
            prop_final_value_exact;
            prop_moments_match_tree_link;
            prop_tree_link_eq56_on_random_trees;
            prop_two_pole_tracks_sim_on_random_trees;
            prop_cauchy_bound_dominates_on_random_trees;
            prop_sparse_moments_match_dense;
            prop_waveform_matches_sim ] ) ]
