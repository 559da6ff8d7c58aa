(** Asymptotic Waveform Evaluation — the top-level driver.

    Given a circuit, an output node, and an approximation order [q],
    [approximate] produces an evaluable reduced-order response:

    + the operating points at [0-] and [0+] fix the initial conditions
      and input jumps (paper, eq. 8);
    + one moment sequence is reduced for the base transient (sources at
      their [0+] values and slopes), and one per ramp-slope break of
      each source waveform, shifted and scaled by superposition (paper,
      Section 4.3, eqs. 63-66);
    + each sequence is moment-matched to [q] poles and residues (paper,
      eqs. 24-29), with frequency scaling (eq. 47).

    The order-control loop [auto] implements Section 3.3-3.4: escalate
    [q] until the (q+1)-vs-q error estimate drops below tolerance,
    treating unstable or degenerate fits as escalation signals. *)

(* Submodules re-exported at the library root. *)
module Moments : module type of Moments
module Approx : module type of Approx
module Moment_match : module type of Moment_match
module Error_est : module type of Error_est
module Elmore : module type of Elmore
module Tree_link : module type of Tree_link
module Two_pole : module type of Two_pole
module Ac : module type of Ac
module Stats : module type of Stats
module Cache : module type of Cache


type options = {
  match_slope : bool;
      (** replace the highest moment by the initial-derivative condition
          (the paper's [m_(-2)] matching, Section 4.3); removes the
          [t = 0] glitch of ramp responses.  Default [false]. *)
  scale_moments : bool;  (** frequency scaling, eq. 47.  Default [true]. *)
  sparse : bool;  (** sparse LU for the moment solves.  Default [false]. *)
  expansion_shift : float;
      (** expansion point [s0] for the moment recursion (default [0.],
          the paper's Maclaurin expansion).  A negative real shift near
          the band of interest resolves fast poles that the DC
          expansion sees weakly — see {!Moments.make}. *)
}

val default_options : options

type t = {
  sys : Circuit.Mna.t;
  node : Circuit.Element.node;
  q : int;
  response : Approx.response;
  base : Approx.transient;
      (** the base component's transient: its poles are "the" AWE poles
          reported in the paper's tables *)
}

exception Degenerate of string
(** No usable fit at any order for a required subproblem. *)

exception Unstable_fit of Linalg.Cx.t list
(** Re-raise of {!Moment_match.Unstable} with the offending poles;
    escalate the order (paper, Section 3.3). *)

(** What to observe: a node voltage, or the branch current of a
    voltage-defined element (independent V source, inductor, VCVS,
    CCVS).  Observing the input source's current yields the
    driving-point (input admittance) reduction — total delivered
    charge, effective capacitance, supply-current waveforms. *)
type observable =
  | Node of Circuit.Element.node
  | Branch_current of int  (** element index *)

type engine
(** The shared analysis state of one system: the single factorization,
    the 0-/0+ operating points, and one lazily extended moment-vector
    sequence per transient subproblem (base plus one ramp kernel per
    breaking source).  Every output node and every order requested of
    the same engine reuses them: evaluating N sinks costs one
    factorization, and escalating from order [q] to [q + 1] costs two
    extra substitutions, not a recomputation (paper, Sections 3.2 and
    3.4). *)

(** Create an engine once per system; the one-shot entry points below
    ([approximate], [auto], ...) are wrappers that build a throwaway
    engine. *)
module Engine : sig
  val create :
    ?options:options -> ?symbolic:Sparse.Slu.symbolic -> Circuit.Mna.t -> engine
  (** Factor once; raises [Circuit.Mna.Singular_dc] like
      {!Moments.make}.  [symbolic] offers a cached pattern analysis to
      the sparse path; it is used only when the system's matrix has
      exactly the analyzed pattern, and never changes the factors. *)

  val sys : engine -> Circuit.Mna.t

  val options : engine -> options

  val symbolic : engine -> Sparse.Slu.symbolic option
  (** The pattern analysis the sparse factorization ran through
      ([None] on the dense path); physically equal to an accepted
      [symbolic] argument, so callers can detect reuse. *)

  val approximate_observable : engine -> observable:observable -> q:int -> t

  val approximate : engine -> node:Circuit.Element.node -> q:int -> t

  val elmore : engine -> node:Circuit.Element.node -> float
  (** Generalized Elmore delay [-mu_1/mu_0] from the first two shared
      moment vectors (no extra factorization). *)

  val error_estimate : engine -> node:Circuit.Element.node -> q:int -> float
  (** The q-vs-(q+1) error term; the two fits share all but two
      moments. *)

  val auto :
    ?tol:float ->
    ?q_max:int ->
    engine ->
    node:Circuit.Element.node ->
    t * float
  (** Incremental order control: same policy as {!Awe.auto}, but each
      escalation extends the shared moment sequence instead of
      recomputing it, so reaching order [q] performs at most
      [2q + 2] moment solves in total. *)

end

val approximate_observable :
  ?options:options -> Circuit.Mna.t -> observable:observable -> q:int -> t
(** Reduce any observable's response.  For [Branch_current] the [node]
    field of the result is meaningless (ground). *)

val approximate :
  ?options:options -> Circuit.Mna.t -> node:Circuit.Element.node -> q:int -> t

val eval : t -> float -> float
(** The approximate output voltage at time [t >= 0]. *)

val waveform : t -> t_stop:float -> samples:int -> Waveform.t

val poles : t -> Linalg.Cx.t list
(** Approximating poles of the base transient, ascending magnitude
    (dominant first). *)

val residues : t -> (Linalg.Cx.t * Linalg.Cx.t) list
(** [(pole, residue)] of the base transient. *)

val steady_state : t -> float
(** Final value of the approximation; exact by construction (moment 0
    matching — paper, Section 3.3). *)

val delay : t -> threshold:float -> t_max:float -> float option
(** First rising crossing of [threshold]. *)

val error_estimate :
  ?options:options ->
  Circuit.Mna.t ->
  node:Circuit.Element.node ->
  q:int ->
  float
(** The paper's error term for order [q] (Section 3.4), as a
    fraction.  For break-free (step/DC) excitations this is the exact
    closed-form relative L2 distance between the order-[q] and
    order-[q+1] base transients — the paper's arithmetic.  When the
    excitation has slope breaks (ramp/PWL), the two assembled
    response {e models} are compared on a time grid instead, because
    (a) the base transient can be identically zero there, making its
    self-distance blind to kernel error, and (b) the superposition of
    large-slope shifted kernel copies amplifies per-kernel error
    through cancellation.  The grid comparison is still pure
    reduced-model evaluation — no circuit integration. *)

val auto :
  ?options:options ->
  ?tol:float ->
  ?q_max:int ->
  Circuit.Mna.t ->
  node:Circuit.Element.node ->
  t * float
(** Adaptive order control: starting at [q = 1], escalate while the
    error estimate exceeds [tol] (default [0.02]) or the fit is
    unstable/degenerate, up to [q_max] (default [8]).  Returns the
    chosen approximation and its error estimate. *)

val elmore_equivalent : Circuit.Mna.t -> node:Circuit.Element.node -> float
(** The generalized Elmore delay [-mu_1 / mu_0] obtained from the first
    two moments (equal to the classical Elmore delay on RC trees, and
    to the steady-state-scaled delay of eq. 3 with grounded
    resistors). *)

(** Batched AWE over many outputs: one moment computation shared by
    every observation node (paper, Section IV / eq. 56). *)
module Batch : sig
  (** Batched AWE over many outputs.

      The expensive work — factoring the DC matrix and running the moment
      recursion — is independent of the observation node: the recursion
      produces full moment *vectors* and each output only projects them
      (paper, Section IV: one tree/link solve yields the Elmore delays of
      {e all} nodes, eq. 56).  This module amortizes that work across all
      requested outputs, which is how a timing analyzer evaluates every
      sink of a net from a single analysis. *)

  type result = {
    node : Circuit.Element.node;
    outcome : outcome;
  }

  and outcome =
    | Approximation of t
    | Failed of string
        (** degenerate or unstable at the requested order even after
            in-scope reduction; the node needs individual escalation *)

  val approximate_all :
    ?options:options ->
    ?engine:engine ->
    Circuit.Mna.t ->
    nodes:Circuit.Element.node list ->
    q:int ->
    result list
  (** One moment computation, one fit per node.  Results are in the order
      of [nodes].  Raises [Invalid_argument] if any node is ground.
      When [engine] is given it is used as-is (it must belong to the
      same system) and [options] is ignored. *)

  val delays_all :
    ?options:options ->
    ?engine:engine ->
    Circuit.Mna.t ->
    nodes:Circuit.Element.node list ->
    q:int ->
    threshold:float ->
    t_max:float ->
    (Circuit.Element.node * float option) list
  (** Threshold-crossing delay at every node from one batched analysis.
      Nodes whose fixed-order fit fails are retried with adaptive order
      escalation on the same engine before reporting [None]. *)

  val elmore_all :
    ?options:options ->
    ?engine:engine ->
    Circuit.Mna.t ->
    (Circuit.Element.node * float) list
  (** Generalized Elmore delay [-mu_1/mu_0] of every non-ground node from
      a single pair of shared moment vectors.  [options] selects the
      sparse solver and expansion shift like the other entry points
      (with a nonzero shift the ratio is about [s0], not DC). *)

end
