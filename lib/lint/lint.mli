(** Static circuit lint.

    Predicts, from the parsed deck alone, the failures a solve would
    hit only at factorization time (or never report cleanly at all):
    singular DC systems, degenerate AWE models with poles at s = 0,
    and numerically hopeless moment scalings.  No check here runs a
    factorization or a solve.

    The singularity prediction is two-tiered, because singularity is:

    - {b structural} when the MNA sparsity pattern itself admits no
      perfect row/column matching (a shorted V source, a floating
      group with no bridging capacitance, a control-only node) — the
      structural-rank check ({!Diagnostic.Structural_rank}) proves LU
      failure for {e every} choice of element values; or
    - {b numerical} when the pattern is full structural rank but the
      rows are linearly dependent for every value choice (a loop of
      voltage sources, a loop of inductors) — only the topological
      checks can see these.

    The union of both tiers is what the lint gate relies on: a deck
    with no lint errors must not raise [Sparse.Slu.Singular] or
    [Circuit.Mna.Singular_dc] when analyzed.

    Lint 2.0 layers three advisory pass families on the shared
    {!Dataflow} fixpoint engine: {!Health} (AWE-W2xx numerical-health
    predictions from structural Elmore bounds), {!Reduce_advice}
    (AWE-I2xx network-reduction candidates) and {!Coverage}
    (AWE-W13x timing-constraint coverage). *)

module Diagnostic = Diagnostic
(** Re-exported so clients of the library's main module can write
    [Lint.Diagnostic.pp_list]. *)

module Dataflow = Dataflow
(** The shared forward/backward fixpoint engine the graph-walking
    checks run on (plus its work counter, which [bench lint_scale]
    gates on). *)

module Health = Health

module Reduce_advice = Reduce_advice

module Coverage = Coverage

module Sarif = Sarif

module Baseline = Baseline

val check_circuit_core : Circuit.Netlist.circuit -> Diagnostic.t list
(** The pre-Lint-2.0 circuit check set, in deterministic order:
    element values, self-loops, DC-floating groups (with the paper's
    Section 3.1 charge-conservation classification), inductor and
    V-source loops, dangling nodes, structural rank of the augmented
    MNA pattern, and the eq. 47 time-constant-spread heuristic.
    Diagnostic-identical to the original traversal implementations (a
    qcheck differential property in test/lint pins this).  Never
    raises on a frozen circuit. *)

val check_circuit : Circuit.Netlist.circuit -> Diagnostic.t list
(** {!check_circuit_core} followed by the {!Health} (AWE-W2xx) and
    {!Reduce_advice} (AWE-I2xx) advisory passes. *)

val check_design_core : Sta.design -> Diagnostic.t list
(** The pre-Lint-2.0 design check set for [.sta] timing designs:
    unknown nets, undriven nets, sinks with no attachment segment,
    sinks not connected to the driver pin, dead constraint targets,
    and combinational cycles. *)

val check_design : Sta.design -> Diagnostic.t list
(** {!check_design_core}, then AWE-E107 (a net with more than one
    source: two gates, or a gate and a primary input), then the
    {!Health} per-net Elmore passes (AWE-W2xx) and the {!Coverage}
    constraint-coverage pass (AWE-W13x). *)

val dedup : Diagnostic.t list -> Diagnostic.t list
(** Collapse duplicates per finding identity
    (code, element, nodes, message), keeping the first occurrence. *)

val sort_diagnostics : Diagnostic.t list -> Diagnostic.t list
(** Stable sort by (line, code id, element, nodes) — the order the
    CLI's text and [--json] output promise. *)

val normalize : Diagnostic.t list -> Diagnostic.t list
(** [sort_diagnostics (dedup ds)]: what the CLI and the
    analyze/timing lint gates print.  The raw [check_*] results stay
    in traversal order for the differential identity tests. *)

val diagnostic_of_parse_error : line:int -> string -> Diagnostic.t option
(** Classify a [Circuit.Parser.Parse_error] message: element-value
    complaints (zero/negative/non-finite R, C, L, out-of-range
    coupling) become a {!Diagnostic.Nonpositive_value} diagnostic;
    anything else ([None]) is a genuine syntax error the caller should
    report as such. *)

val errors : Diagnostic.t list -> Diagnostic.t list

val gate : strict:bool -> Diagnostic.t list -> (unit, Diagnostic.t list) result
(** The go/no-go decision: [Error ds] lists the diagnostics whose
    {!Diagnostic.effective_severity} is [Error] ([strict] promotes
    warnings). *)
