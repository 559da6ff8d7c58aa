(** Modified nodal analysis.

    Assembles a circuit into the descriptor system

    {v G x + C x' = B u(t) v}

    where [x] stacks the non-ground node voltages followed by one branch
    current per voltage-defined element (independent V sources,
    inductors, VCVS, CCVS), and [u] stacks the independent source
    values.  [G] holds the conductive stamps, [C] the energy-storage
    stamps (the paper's "energy storage matrix", eq. 31, never
    inverted), and [B] routes sources into equations.

    {b Floating nodes.}  Node groups with no DC path to ground make [G]
    singular; the paper (Section 3.1) resolves their steady state with
    charge conservation.  [build] detects such groups and, in
    [`Charge_rows] mode, designates one KCL row per group to be
    replaced — in every DC-type solve — by the group's conserved-charge
    equation [Q_row . x = q].  The replaced KCL row is redundant (the
    group's KCL rows sum to zero at DC), so no information is lost.
    [`Pin_to_zero] instead replaces the row with [v_rep = 0], the
    convention used for 0- operating points when no initial condition
    determines the group.  [`Reject] raises on any floating group. *)

type floating_mode = [ `Charge_rows | `Pin_to_zero | `Reject ]

type t

val build : ?floating:floating_mode -> Netlist.circuit -> t
(** Assemble.  Raises [Invalid_argument] if a current source drives a
    floating group (its charge would grow without bound), or when
    [floating = `Reject] and a floating group exists. *)

val circuit : t -> Netlist.circuit

val size : t -> int
(** Number of unknowns. *)

val node_var : t -> Element.node -> int
(** Unknown index of a node voltage; [-1] for ground. *)

val branch_var : t -> int -> int option
(** [branch_var m elem_idx] is the branch-current unknown of element
    [elem_idx] (V source, inductor, VCVS, CCVS), if any.  The current
    flows from the positive to the negative node through the element. *)

val g : t -> Linalg.Matrix.t
(** The conductive part (fresh copy). *)

val c : t -> Linalg.Matrix.t
(** The energy-storage part (fresh copy). *)

val b : t -> Linalg.Matrix.t
(** Source incidence, [size x source count] (fresh copy). *)

val c_csr : t -> Sparse.Csr.t
(** Sparse view of [C] for the moment recursion's products. *)

val source_count : t -> int

val source_element : t -> int -> int
(** Element index of a source column. *)

val source_waveform : t -> int -> Element.waveform

val u_at : t -> float -> Linalg.Vec.t
(** Source vector [u(t)]. *)

val voltage : t -> Linalg.Vec.t -> Element.node -> float
(** Node voltage from a solution vector ([0.] for ground). *)

val charge_group_count : t -> int

val charge_coeffs : t -> int -> Linalg.Vec.t
(** The conserved-charge row [Q] of group [i]: [Q . x] is the group's
    total charge. *)

val charges_of : t -> Linalg.Vec.t -> float array
(** Conserved charge of each group evaluated on a state vector. *)

val describe_var : t -> int -> string
(** Human-readable name of unknown index [v] — ["node n3"] for a node
    voltage, ["branch current of L2"] for a voltage-defined element's
    current — used to map sparse-layer pivot failures back to the
    circuit. *)

val augmented_g : t -> Linalg.Matrix.t
(** The matrix [dc_factor] actually factors: [G] with each floating
    group's designated KCL row replaced by its charge (or pin) row.
    Exposed so the lint layer can run a structural-rank check on the
    very pattern whose factorization it is predicting. *)

type dc_solver
(** A reusable factorization of [G] with the floating-group rows
    replaced (charge rows in [`Charge_rows] mode, pin rows in
    [`Pin_to_zero] mode) — the single LU factorization that the moment
    recursion reuses for every moment (paper, Section 3.2). *)

exception Singular_dc of string
(** The (augmented) conductance matrix is singular: the circuit has no
    unique DC solution even after floating-group treatment (e.g. a
    cutset of current sources).  The message names the offending
    unknown via {!describe_var}. *)

val dc_factor : ?sparse:bool -> ?symbolic:Sparse.Slu.symbolic -> t -> dc_solver
(** Factor the augmented [G].  [sparse] (default [false]) selects the
    sparse Gilbert-Peierls path used by the scaling benchmark.
    [symbolic] offers a previously computed analysis to the sparse
    path; it is used only when this matrix's stored pattern is
    identical to the one it analyzed (checked with
    {!Sparse.Slu.pattern_matches}), so supplying it never changes the
    numbers — both paths run the same [symbolic]-then-[refactor]
    pipeline, and identical patterns yield identical analyses. *)

val dc_symbolic : dc_solver -> Sparse.Slu.symbolic option
(** The analysis the sparse path factored through ([None] on the dense
    path) — physically equal to a [symbolic] argument that was
    accepted, so callers can detect reuse and publish new analyses. *)

val dc_solve : dc_solver -> rhs:Linalg.Vec.t -> charges:float array -> Linalg.Vec.t
(** Solve [G' x = rhs'] where the floating-group rows of [rhs] are
    replaced by the given per-group values ([charges] must have length
    [charge_group_count]; pass [[||]] when there are no groups). *)

val state_derivative :
  t -> x:Linalg.Vec.t -> u:Linalg.Vec.t -> (Linalg.Vec.t * bool array) option
(** [state_derivative m ~x ~u] solves the dynamic rows of
    [C x' = B u - G x] for [x'].  Returns the derivative vector (zero
    in non-dynamic positions) and a per-position validity mask, or
    [None] when the dynamic submatrix is singular (a purely floating
    capacitive island).  Used to match the paper's [m_(-2)] initial
    slope term (Section 4.3). *)
