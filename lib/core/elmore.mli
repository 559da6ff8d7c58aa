(** The classical RC-tree methods (paper, Section II) — the baselines
    AWE subsumes.

    On an RC tree driven by a step, the Elmore delay at node [i] is
    [T_D(i) = sum_k R(path(i) intersect path(k)) C_k] (eq. 50),
    computable in O(n) by a tree walk [Penfield-Rubinstein]; the
    Penfield-Rubinstein waveform model is the single exponential
    [v(t) = v_inf (1 - exp(-t / T_D))] (eq. 2). *)

val delays : Circuit.Netlist.circuit -> float array
(** [delays ckt] is the Elmore delay of every node (indexed by node id;
    ground and source nodes get [0.]).  Raises [Invalid_argument] if
    the circuit is not an RC tree (use {!Awe.elmore_equivalent} for the
    moment-based generalization). *)

val delay : Circuit.Netlist.circuit -> Circuit.Element.node -> float
(** Elmore delay of one node. *)

val scaled_delay :
  Circuit.Mna.t -> node:Circuit.Element.node -> float
(** The grounded-resistor extension (eq. 3):
    [T_D = integral (v_inf - v(t)) dt / (v_inf - v(0))], computed from
    the first two moments; works on any topology with a DC solution and
    coincides with [delays] on RC trees. *)
