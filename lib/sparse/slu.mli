(** Sparse LU factorization (left-looking Gilbert-Peierls) with an
    explicit symbolic/numeric split.

    The AWE moment recursion factors the DC conductance matrix once and
    then performs [2q] forward/back substitutions (paper, Section 3.2);
    circuit matrices are very sparse, so a sparse factorization keeps
    the whole moment computation near-linear in circuit size.

    The factorization is split into two phases.  {!symbolic} derives
    everything that depends on the nonzero pattern alone: the
    fill-reducing ordering, a {e static} pivot assignment (a maximum
    matching that places every pivot on a stored entry, preferring the
    diagonal — the numerically dominant choice for MNA node rows), and
    the per-column reach sets discovered by depth-first search on the
    pattern of the partially built [L] (Gilbert & Peierls' algorithm,
    run once on the pattern instead of once per matrix).  {!refactor}
    replays only the numeric scatter/update/gather against a
    precomputed symbolic — the phase that is repeated when many
    matrices share one sparsity pattern, as the structurally identical
    per-net MNA systems of a timing design do.  {!factor} is the
    one-shot composition of the two. *)

type t
(** A factorization [P A = L U] of a square sparse matrix. *)

exception Singular of int
(** Raised when no nonzero pivot exists, carrying the failing column
    in the {e original} (unpermuted) numbering — i.e. the index of the
    unknown whose equation set is rank deficient, which MNA callers
    map back to a node name or branch element.  Raised by {!symbolic}
    on structural deficiency (no perfect matching exists — no value
    assignment can make the matrix nonsingular) and by {!refactor}
    when a structurally present pivot cancels to exactly zero. *)

val min_degree_order : Csr.t -> int array
(** Greedy minimum-degree ordering of the symmetrized nonzero
    pattern, the fill-reducing permutation [factor] applies by
    default.  Pivot selection uses degree buckets (a doubly-linked
    vertex list per degree), so picking each pivot is O(1) amortized
    rather than a scan over all remaining vertices. *)

type symbolic
(** The pattern-only half of a factorization: ordering, static pivot
    assignment, elimination (fill) structure, and the scatter map from
    stored entries to pivot positions.  Immutable and safe to share
    across domains; every matrix with the same stored pattern reuses
    it through {!refactor}. *)

val symbolic : ?order:int array -> Csr.t -> symbolic
(** Analyze a square CSR pattern.  Raises [Singular] on structural
    rank deficiency ({!Matching.structurally_singular} predicts
    exactly these failures).  [order] overrides the fill-reducing
    symmetric permutation (default {!min_degree_order}); it must be a
    permutation of [0 .. n-1].  Entry values are never read. *)

val refactor : symbolic -> Csr.t -> t
(** [refactor s a] runs the numeric factorization of [a] through the
    precomputed analysis [s].  The stored pattern of [a] must be
    identical to the pattern [s] analyzed: a mismatched matrix is
    rejected with [Invalid_argument] naming the first mismatching
    column (silently scattering into wrong positions would corrupt
    the factors).  Raises [Singular] when an assigned pivot evaluates
    to exactly zero. *)

val pattern_matches : symbolic -> Csr.t -> bool
(** Whether [refactor] would accept the matrix: its stored pattern is
    identical to the one the symbolic analyzed.  Cheap (linear scan,
    no allocation); use it to probe cached symbolics. *)

val same_analysis : symbolic -> symbolic -> bool
(** Whether two symbolics analyzed the identical stored pattern (and
    are therefore interchangeable for {!refactor}).  Used by caches to
    avoid storing duplicate analyses of one pattern. *)

val factor : ?order:int array -> Csr.t -> t
(** [symbolic] followed by [refactor] on the same matrix.  Raises
    [Singular] on structural or numerical rank deficiency.
    {!Matching.structurally_singular} on the same pattern predicts the
    structural subset of these failures without any arithmetic.

    [order] overrides the fill-reducing symmetric permutation (default
    {!min_degree_order}); it must be a permutation of [0 .. n-1].
    Exposed so orderings can be compared by the fill they produce. *)

val solve : t -> Linalg.Vec.t -> Linalg.Vec.t
(** [solve f b] returns [x] with [A x = b]. *)

val dim : t -> int

val nnz_factors : t -> int
(** Stored nonzeros in [L] and [U] together — the fill-in metric
    reported by the scaling benchmark. *)

val solve_system : Csr.t -> Linalg.Vec.t -> Linalg.Vec.t
(** One-shot [factor] + [solve]. *)
