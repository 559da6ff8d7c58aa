(** Static timing analysis on AWE net-delay evaluation.

    The design model, per-net solve, path tracing and file format live
    in {!Timing} (a library's sibling modules cannot depend on its main
    module); this root re-exports it wholesale — [Sta.Design_file],
    [Sta.Synth], ... — together with the timing engine's entry points:

    - {!analyze} and {!analyze_corners} — cold analysis, one all-dirty
      pass of the engine;
    - {!Session} — the engine itself, and long-lived ECO sessions on
      it: load once, apply typed edits, re-time only the dirty cone;
    - {!Serve} — the [awesim serve] line protocol over a session. *)

include module type of struct
  include Timing
end

val analyze :
  ?model:delay_model -> ?sparse:bool -> ?jobs:int -> ?strict:bool ->
  ?reduce:bool ->
  ?cache:cache ->
  design -> report
(** Topological timing propagation: one pass of the timing engine
    ({!Session}) with every net dirty.  Default model is [Awe_auto].

    The design is checked before anything is solved.  A gate pin on an
    unknown net raises [Malformed], and so does a net with more than
    one source — two gates driving it, or a gate driving a primary
    input — since which source wins would be an accident of
    declaration order.  Nets the wave schedule can never reach (a
    combinational cycle, an undriven net) raise [Not_a_dag] with their
    sorted names, whatever [strict] is.

    [reduce] (default [true]) runs {!Circuit.Reduce} on every stage
    circuit before MNA stamping: parallel and unloaded-series merges
    are exact (sink timings bit-identical to within 1e-12 relative);
    RC chain lumping and star-leg merging preserve the low-order
    moments at the driver and every sink pin (which are ports and are
    never eliminated), so AWE delays agree within the verification
    harness tolerance.  Reduction happens {e before} cache keying, so
    stages that become isomorphic after reduction share pattern-tier
    entries; the per-net reduction report accumulates into
    [stats] ([reduce_nodes_eliminated] and friends).

    Each net is timed through one shared {!Awe.Engine}: one MNA build,
    one factorization, and one moment-vector sequence evaluated at
    every sink; adaptive order escalation extends the shared sequence
    instead of recomputing it.  [sparse] (default [false]) routes the
    per-net factorization through the sparse LU — worthwhile on large
    nets.

    [jobs] (default 1) fans the solves of each topological wave across
    a {!Parallel} pool, in contiguous chunks of the wave's sorted net
    list (one task per pool slot, not per net, so dispatch overhead
    amortizes over many solves).  Nets of one wave are independent —
    their driver arrivals and slews were fixed by earlier waves — and
    results are recorded in sorted net order, so the report (and its
    merged [stats]) is bit-identical for every [jobs] value.  [jobs]
    follows the tree-wide convention: [0] means the machine's
    recommended domain count, negative raises [Invalid_argument].

    [strict] (default [true]) governs per-net failures (a sink with no
    attaching segment, a threshold never crossed): strict raises
    [Malformed] for the first failing net in wave order (lowest-sorted
    within its wave), matching a sequential sweep; non-strict records
    the diagnostic in [failures], keeps timing the sibling nets, and
    lists everything downstream of a failed net as "not timed: an
    upstream net failed", sorted, after the diagnostics.

    [cache] (default none) threads a structure-sharing cache through
    the analysis.  Tasks of one topological wave read a view frozen at
    wave start and publish into a private per-chunk shard (no
    contention inside a wave; a template stamped several times within
    one chunk is computed once and served from the shard); the
    coordinator absorbs the shards at the wave boundary in chunk
    order, which replays publications in exactly sorted net order,
    first-wins — so the report, every hit/miss counter in [stats], and
    the final cache contents are bit-identical for every [jobs] value
    (hit/miss verdicts come from the frozen view alone; shard hits
    replay the verdict and solve counters of the computation that
    populated the entry), and identical to an uncached run except for
    the cache-counter fields themselves (exact hits replay the solve
    counters of the computation that populated the entry, so the work
    counters match an uncached run; only the phase CPU timers shrink
    with the work actually skipped).  See THEORY.md, "Sharded
    publication".  Passing the same cache to a second [analyze] of the
    same design serves every net from the exact tier.

    When the design carries constraints (or a clock), the forward pass
    is followed by a sequential backward pass on the coordinator:
    required times flow from the endpoints toward the inputs in
    reverse wave order — through a sink gate, the output
    requirement less the intrinsic; across a net, the sink requirement
    less that sink's per-transition wire delay, min'ed over sinks —
    filling [slacks] and [worst_slack].  The min-plus dual of the
    max-plus arrival pass, so the worst pin slack equals the worst
    endpoint slack up to floating-point re-association. *)

val analyze_corners :
  ?model:delay_model -> ?sparse:bool -> ?jobs:int -> ?strict:bool ->
  ?reduce:bool ->
  ?cache:bool ->
  design -> Circuit.Corner.t list -> corners_report
(** One full {!analyze} per corner over {!corner_design}, sequentially
    in spec order (each corner's waves still fan out across the
    [jobs] pool).  With [cache] (default [true]), every corner gets a
    private exact tier but all corners share one pattern-tier store:
    corners derate values, never topology, so each distinct topology
    pays for its symbolic sparse analysis once across all corners
    ([sparse] runs) — corner 2..N pattern-hit every template corner 1
    analyzed.  Reports, stats and cache contents are bit-identical to
    N independent [analyze] calls over [corner_design]s threading
    caches that share a patterns store ({!create_cache}).  Raises
    [Invalid_argument] on an empty corner list or duplicate corner
    names. *)

module Session : module type of struct
  include Session
end

module Serve : module type of struct
  include Serve
end
