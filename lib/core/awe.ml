(* Re-export the library's submodules so [Awe.Moments], [Awe.Approx],
   etc. are reachable from the single entry module. *)
module Moments = Moments
module Approx = Approx
module Moment_match = Moment_match
module Error_est = Error_est
module Elmore = Elmore
module Tree_link = Tree_link
module Two_pole = Two_pole
module Ac = Ac
module Stats = Stats
module Cache = Cache

open Linalg

type options = {
  match_slope : bool;
  scale_moments : bool;
  sparse : bool;
  expansion_shift : float;
}

let default_options =
  { match_slope = false;
    scale_moments = true;
    sparse = false;
    expansion_shift = 0. }

type t = {
  sys : Circuit.Mna.t;
  node : Circuit.Element.node;
  q : int;
  response : Approx.response;
  base : Approx.transient;
}

exception Degenerate of string

exception Unstable_fit of Cx.t list

(* Fit one subproblem's moment sequence at order [q], retrying at lower
   orders when the moment matrix is singular (the subproblem has fewer
   than [q] active poles); right-half-plane poles raise. *)
let fit_sequence ~opts ~q ~slope mu =
  let slope = if opts.match_slope then slope else None in
  let rec attempt q =
    if q < 1 then raise (Degenerate "no usable order for moment sequence")
    else begin
      match
        Moment_match.fit ~scale:opts.scale_moments
          ~shift:opts.expansion_shift ?slope ~q
          (Array.sub mu 0 (2 * q))
      with
      | terms -> terms
      | exception Moment_match.No_fit _ ->
        Stats.record_fit_retry ();
        attempt (q - 1)
      | exception Moment_match.Unstable ps -> raise (Unstable_fit ps)
    end
  in
  attempt q

type observable =
  | Node of Circuit.Element.node
  | Branch_current of int (* element index with a branch unknown *)

let observable_var sys = function
  | Node node ->
    let v = Circuit.Mna.node_var sys node in
    if v < 0 then
      invalid_arg "Awe.approximate: output cannot be the ground node";
    (v, node)
  | Branch_current idx -> (
    match Circuit.Mna.branch_var sys idx with
    | Some v -> (v, Circuit.Element.ground)
    | None ->
      invalid_arg
        "Awe.approximate: element carries no branch current (only V \
         sources, inductors, VCVS and CCVS do)")

(* ------------------------------------------------------------------ *)
(* The shared engine: one MNA factorization, one operating-point pair,
   and one lazily extended moment-vector sequence per subproblem,
   shared by every output node and every approximation order asked of
   this system (paper, Section 3.2: after the single LU, each moment
   is one substitution). *)

type source_kernel = { kprob : Moments.problem; kseq : Moments.seq }

type engine = {
  eng_sys : Circuit.Mna.t;
  eng_options : options;
  moments : Moments.engine;
  base_prob : Moments.problem;
  base_seq : Moments.seq;
  source_breaks : (float * float) list array;
      (* canonicalized slope breaks per source column *)
  kernels : source_kernel option array; (* ramp kernels, created on demand *)
}

module Engine = struct
  let create ?(options = default_options) ?symbolic sys =
    let moments =
      Moments.make ~sparse:options.sparse ?symbolic
        ~shift:options.expansion_shift sys
    in
    let op0 = Circuit.Dc.initial sys in
    let op0p = Circuit.Dc.at_zero_plus sys op0 in
    let base_prob = Moments.base_problem moments op0p in
    let nsrc = Circuit.Mna.source_count sys in
    let source_breaks =
      Array.init nsrc (fun col ->
          (Circuit.Element.canonicalize (Circuit.Mna.source_waveform sys col))
            .Circuit.Element.breaks)
    in
    { eng_sys = sys;
      eng_options = options;
      moments;
      base_prob;
      base_seq = Moments.seq moments base_prob;
      source_breaks;
      kernels = Array.make nsrc None }

  let sys e = e.eng_sys

  let options e = e.eng_options

  let symbolic e = Moments.symbolic e.moments

  let kernel e col =
    match e.kernels.(col) with
    | Some k -> k
    | None ->
      let kprob = Moments.ramp_kernel e.moments ~src_col:col in
      let k = { kprob; kseq = Moments.seq e.moments kprob } in
      e.kernels.(col) <- Some k;
      k

  (* fit one subproblem at order [q] from a prefix of its shared
     sequence; escalating later only extends the sequence *)
  let fit_prefix e ~out_var ~q prob sq =
    let mu = Moments.mu (Moments.prefix sq ~count:(2 * q)) ~out_var in
    if Moments.is_negligible mu then []
    else
      fit_sequence ~opts:e.eng_options ~q
        ~slope:(Moments.mu_slope prob ~out_var)
        mu

  let approximate_observable e ~observable ~q =
    if q < 1 then invalid_arg "Awe.approximate: order must be >= 1";
    let out_var, node = observable_var e.eng_sys observable in
    let base_terms = fit_prefix e ~out_var ~q e.base_prob e.base_seq in
    let base_component =
      { Approx.t_shift = 0.;
        scale = 1.;
        p_const = e.base_prob.Moments.d0.(out_var);
        p_slope = e.base_prob.Moments.d1.(out_var);
        transient = base_terms }
    in
    let break_components = ref [] in
    Array.iteri
      (fun col breaks ->
        match breaks with
        | [] -> ()
        | breaks ->
          let k = kernel e col in
          let kterms = fit_prefix e ~out_var ~q k.kprob k.kseq in
          List.iter
            (fun (t_k, dr) ->
              break_components :=
                { Approx.t_shift = t_k;
                  scale = dr;
                  p_const = k.kprob.Moments.d0.(out_var);
                  p_slope = k.kprob.Moments.d1.(out_var);
                  transient = kterms }
                :: !break_components)
            breaks)
      e.source_breaks;
    { sys = e.eng_sys;
      node;
      q;
      response = base_component :: List.rev !break_components;
      base = base_terms }

  let approximate e ~node ~q =
    approximate_observable e ~observable:(Node node) ~q

  let elmore e ~node =
    let out_var = Circuit.Mna.node_var e.eng_sys node in
    if out_var < 0 then
      invalid_arg "Awe.Engine.elmore: output cannot be ground";
    let mu = Moments.mu (Moments.prefix e.base_seq ~count:2) ~out_var in
    if Float.abs mu.(0) < 1e-300 then 0. else -.(mu.(1) /. mu.(0))

  (* The q-vs-(q+1) error of the whole response (paper, Section 3.4).

     Estimating on the base transient alone is wrong twice over for
     ramp/PWL excitations: (1) with no jump at t = 0 and a circuit at
     rest the base transient is identically zero, its self-distance is
     zero at every order, and order control would accept an order-1
     fit of an arbitrarily bad ramp kernel; (2) a PWL staircase
     superposes large-slope shifted copies of the kernel with opposite
     signs, so even a small *per-kernel* relative error is amplified
     by the cancellation between copies — the response can be wrong by
     far more than any subproblem is.

     So: when the response is break-free (step/DC excitation — every
     configuration in the paper's tables) the estimate is the exact
     closed-form relative L2 distance between the two base transients,
     the paper's arithmetic.  When slope breaks superpose shifted
     kernels, the two assembled *models* are compared on a time grid
     instead — still pure reduced-model evaluation, no circuit
     integration; the closed form does not extend to shifted cross
     terms.  The grid spans the last activation plus a settle
     allowance of the slowest pole of either model, and the distance
     is normalized by the transient part of the (q+1) model. *)
  let response_error (a_q : t) (a_q1 : t) =
    let has_breaks =
      List.exists (fun (c : Approx.component) -> c.Approx.t_shift > 0.)
        a_q.response
    in
    if not has_breaks then
      let exact = a_q1.base and approx = a_q.base in
      if Error_est.l2_norm_sq exact <= 0. then
        if Error_est.l2_norm_sq approx <= 0. then 0. else infinity
      else Error_est.relative_error ~exact approx
    else begin
      let tau =
        List.fold_left
          (fun acc (c : Approx.component) ->
            List.fold_left
              (fun acc (p : Linalg.Cx.t) ->
                Float.max acc (1. /. Float.max (Float.abs p.Linalg.Cx.re) 1e-300))
              acc
              (Approx.transient_poles c.Approx.transient))
          0.
          (a_q.response @ a_q1.response)
      in
      let t_last =
        List.fold_left
          (fun acc (c : Approx.component) -> Float.max acc c.Approx.t_shift)
          0. a_q1.response
      in
      let t_stop = t_last +. (8. *. Float.max tau 1e-300) in
      (* the particular (DC + ramp) parts of the two models are
         identical — same operating points, scales, and shifts — so
         their difference is the transient difference.  The normalizer
         is the (q+1) model's excursion from its steady value: the
         same measure an external reference would be compared against.
         (Subtracting the per-component particular parts instead would
         inflate the normalizer with the large slope-cancellation
         terms of the PWL decomposition and mask real error; it
         remains the fallback when no steady value exists.) *)
      let offset =
        match Approx.steady_value a_q1.response with
        | v -> fun _ -> v
        | exception Invalid_argument _ ->
          let particular =
            List.map
              (fun (c : Approx.component) -> { c with Approx.transient = [] })
              a_q1.response
          in
          fun t -> Approx.eval particular t
      in
      let n = 256 in
      let dt = t_stop /. float_of_int n in
      let num = ref 0. and den = ref 0. in
      for k = 0 to n do
        let t = dt *. float_of_int k in
        let w = if k = 0 || k = n then 0.5 else 1. in
        let d = Approx.eval a_q.response t -. Approx.eval a_q1.response t in
        let x = Approx.eval a_q1.response t -. offset t in
        num := !num +. (w *. d *. d);
        den := !den +. (w *. x *. x)
      done;
      if !den <= 0. then if !num <= 0. then 0. else infinity
      else sqrt (!num /. !den)
    end

  let error_estimate e ~node ~q =
    let a_q = approximate e ~node ~q in
    let a_q1 = approximate e ~node ~q:(q + 1) in
    response_error a_q a_q1

  let auto ?(tol = 0.02) ?(q_max = 8) e ~node =
    let rec search q best =
      if q > q_max then
        match best with
        | Some (a, err) -> (a, err)
        | None ->
          raise (Degenerate "no stable approximation up to the maximum order")
      else begin
        match
          let a = approximate e ~node ~q in
          let a' = approximate e ~node ~q:(q + 1) in
          (a, response_error a a')
        with
        | a, err when err <= tol -> (a, err)
        | a, err ->
          Stats.record_order_escalation ();
          let best =
            match best with
            | Some (_, best_err) when best_err <= err -> best
            | _ -> Some (a, err)
          in
          search (q + 1) best
        | exception (Unstable_fit _ | Degenerate _) ->
          Stats.record_order_escalation ();
          search (q + 1) best
      end
    in
    search 1 None

end

(* ------------------------------------------------------------------ *)
(* One-shot entry points: build a throwaway engine.  Callers that
   evaluate several nodes or orders of the same system should create
   the engine once (see {!Engine} and {!Batch}). *)

let approximate_observable ?options sys ~observable ~q =
  Engine.approximate_observable (Engine.create ?options sys) ~observable ~q

let approximate ?options sys ~node ~q =
  approximate_observable ?options sys ~observable:(Node node) ~q

let eval t time = Approx.eval t.response time

let waveform t ~t_stop ~samples = Approx.waveform t.response ~t_stop ~samples

let poles t = Approx.transient_poles t.base

let residues t = Approx.dc_gain_residues t.base

let steady_state t = Approx.steady_value t.response

let delay t ~threshold ~t_max =
  Approx.crossing_time t.response ~threshold ~t_max

let error_estimate ?options sys ~node ~q =
  Engine.error_estimate (Engine.create ?options sys) ~node ~q

let auto ?options ?tol ?q_max sys ~node =
  Engine.auto ?tol ?q_max (Engine.create ?options sys) ~node

let elmore_equivalent sys ~node = Elmore.scaled_delay sys ~node

(* ------------------------------------------------------------------ *)
module Batch = struct
  type result = { node : Circuit.Element.node; outcome : outcome }

  and outcome = Approximation of t | Failed of string

  let engine_of ?options ?engine sys =
    match engine with Some e -> e | None -> Engine.create ?options sys

  let approximate_all ?options ?engine sys ~nodes ~q =
    if q < 1 then invalid_arg "Batch.approximate_all: order must be >= 1";
    let e = engine_of ?options ?engine sys in
    List.map
      (fun node ->
        match Engine.approximate e ~node ~q with
        | a -> { node; outcome = Approximation a }
        | exception Degenerate msg -> { node; outcome = Failed msg }
        | exception Unstable_fit _ ->
          { node; outcome = Failed "unstable fit" })
      nodes

  let delays_all ?options ?engine sys ~nodes ~q ~threshold ~t_max =
    let e = engine_of ?options ?engine sys in
    approximate_all ~engine:e sys ~nodes ~q
    |> List.map (fun r ->
           match r.outcome with
           | Approximation a -> (r.node, delay a ~threshold ~t_max)
           | Failed _ -> (
             (* a node whose fixed-order fit is degenerate or unstable
                gets individual order escalation (paper, Section 3.3)
                on the same engine: the shared moments are reused *)
             match Engine.auto e ~node:r.node with
             | a, _ -> (r.node, delay a ~threshold ~t_max)
             | exception (Degenerate _ | Unstable_fit _) -> (r.node, None)))

  let elmore_all ?options ?engine sys =
    let e = engine_of ?options ?engine sys in
    let sys = e.eng_sys in
    let ws = Moments.prefix e.base_seq ~count:2 in
    let ckt = Circuit.Mna.circuit sys in
    List.init (ckt.Circuit.Netlist.node_count - 1) (fun i ->
        let node = i + 1 in
        let v = Circuit.Mna.node_var sys node in
        let mu0 = ws.(0).(v) and mu1 = ws.(1).(v) in
        let td = if Float.abs mu0 < 1e-300 then 0. else -.(mu1 /. mu0) in
        (node, td))

end
