(** Observability counters for the AWE pipeline.

    Every factorization ({!Moments.make}), moment substitution
    ({!Moments.advance}), moment-matching fit ({!Moment_match.fit}),
    in-fit order reduction, and order escalation ({!Awe.auto}) bumps a
    counter; phase CPU time accumulates under a phase name.
    [Sta.analyze] additionally counts MNA assemblies.

    The counters are {e domain-local}: each domain owns an independent
    counter record, so concurrent solves in a {!Parallel} pool never
    contend or interleave.  Within one domain the counters are
    monotone and the classic before/after [snapshot] + [diff] idiom
    measures a region of code.  Parallel drivers instead wrap each
    task in [scoped] — which observes exactly that task's counts,
    wherever it ran — and combine the per-task windows with the
    commutative, associative [merge], so reported totals are identical
    for any execution schedule and any job count.  ([phase_seconds] is
    per-domain CPU time and is summed by [merge]; unlike the integer
    counters it is measurement, not arithmetic, and may vary run to
    run.)

    The counters exist to make the paper's central economy checkable:
    timing a net with N sinks must show exactly one factorization, and
    escalating from order [q] to [q + 1] must add two moment solves,
    not a recomputation (see the [test/sta] and [bench] assertions). *)

type snapshot = {
  factorizations : int;  (** LU/sparse-LU factorizations of the DC matrix *)
  moment_solves : int;  (** forward/back substitutions [w -> A^-1 w] *)
  fits : int;  (** moment-matching fit attempts *)
  fit_retries : int;  (** in-fit order reductions on singular moment matrices *)
  order_escalations : int;  (** [q -> q + 1] steps taken by [Awe.auto] *)
  mna_builds : int;  (** MNA assemblies (counted by [Sta]) *)
  cache_exact_hits : int;
      (** structure-cache hits that reused a whole engine *)
  cache_pattern_hits : int;
      (** structure-cache hits that reused a symbolic factorization *)
  cache_misses : int;  (** structure-cache lookups that found nothing *)
  cache_bytes : int;
      (** heap footprint of the structure cache's entries
          ([Cache.bytes]), merged once into an analysis's report by
          the timing engine (no domain records it, so ambient
          snapshots read 0) *)
  reduce_nodes_eliminated : int;
      (** nodes removed by the pre-AWE [Circuit.Reduce] pass *)
  reduce_elements_eliminated : int;
      (** elements removed by the pre-AWE [Circuit.Reduce] pass *)
  reduce_parallel_merges : int;  (** parallel element groups merged *)
  reduce_series_merges : int;
      (** capacitor-free resistor runs collapsed (exact) *)
  reduce_chain_lumps : int;  (** series RC runs lumped to a T section *)
  reduce_star_merges : int;  (** hubs whose RC legs were merged *)
  eco_edits : int;  (** edits applied to a {!Sta.Session} *)
  eco_dirty_nets : int;
      (** nets re-solved by an incremental re-time (the dirty cone) *)
  eco_reused_nets : int;
      (** nets served from the session memo without re-solving *)
  eco_full_fallbacks : int;
      (** incremental re-times abandoned for a full cold re-analysis *)
  phase_seconds : (string * float) list;  (** CPU seconds per phase *)
}

val reset : unit -> unit
(** Zero the calling domain's counters and phase timers. *)

val snapshot : unit -> snapshot
(** The calling domain's counters. *)

val zero : snapshot
(** The all-zero snapshot — the identity of {!merge}. *)

val diff : snapshot -> snapshot -> snapshot
(** [diff after before] — per-region deltas within one domain. *)

val merge : snapshot -> snapshot -> snapshot
(** Pointwise sum; phase lists are unioned by name.  Commutative and
    associative on the integer counters, so folding per-task [scoped]
    windows in any order yields the same totals. *)

val scoped : (unit -> 'a) -> 'a * snapshot
(** [scoped f] runs [f] against a fresh counter window and returns its
    result together with exactly the counts [f] produced, independent
    of which domain ran it or what ran before.  The window is folded
    back into the enclosing record afterwards, so an outer
    [snapshot]/[diff] still sees the work.  Exception-safe (the window
    is folded back, the exception re-raised). *)

val record_factorization : unit -> unit

val record_moment_solve : unit -> unit

val record_fit : unit -> unit

val record_fit_retry : unit -> unit

val record_order_escalation : unit -> unit

val record_mna_build : unit -> unit

val record_cache_exact_hit : unit -> unit

val record_cache_pattern_hit : unit -> unit

val record_cache_miss : unit -> unit

val record_reduction :
  nodes:int ->
  elements:int ->
  parallels:int -> series:int -> chains:int -> stars:int -> unit
(** Accumulate one net's [Circuit.Reduce] report.  Reduction always
    runs {e before} the structure-cache lookup, so these counters are
    deliberately outside {!replay}: a cache hit still pays (and
    counts) its own reduction. *)

val record_eco :
  edits:int -> dirty_nets:int -> reused_nets:int -> full_fallbacks:int -> unit
(** Accumulate one incremental re-time's ECO tallies ([Sta.Session]).
    Outside {!replay} for the same reason as the cache fields: these
    describe session bookkeeping, not solver work a hit stands for. *)

val replay : snapshot -> unit
(** Re-record the engine counters of a snapshot — the six work
    counters only, not the cache fields or phase timers — into the
    calling domain's record.  Used by the structure cache: serving a
    net from the exact tier replays the counters of the computation
    that produced the entry, so a cached analysis reports the same
    solve counts as an uncached one (the hit {e stands for} that
    work), and the cache's effect shows up in wall-clock and in its
    own hit counters rather than as silently vanishing solves. *)

val time : string -> (unit -> 'a) -> 'a
(** [time phase f] runs [f], accumulating its CPU time under [phase]
    in the calling domain's record. *)

val pp : Format.formatter -> snapshot -> unit
