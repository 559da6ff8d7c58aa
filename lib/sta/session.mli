(** The timing engine, and incremental ECO sessions on top of it.

    The engine keeps, per net, its arrival tuple (arrivals, slew and
    the worst input net), solved sink delays, required times and slack
    entries, plus the memo inputs its solve depended on.  One pass
    drains two worklists over the Kahn wave schedule, so a re-time
    costs the nets an edit reaches, not the design:

    - {e Forward}, per wave in sorted net order.  An edit seeds the
      nets it touched: the net of a wire, sink-membership, pin-cap or
      drive edit (its memo goes stale), and the output net of a gate
      whose intrinsic or inputs changed.  A visited net pulls its
      arrival tuple; it is re-solved when its own content changed or
      its input slew changed bitwise, and otherwise re-timed from the
      per-net memo.  When its published record changes (bitwise), the
      outputs of its sink gates join their (later) waves.
    - {e Backward}, in reverse wave order.  The re-solved nets and
      the nets whose required-time inputs changed (intrinsic edits,
      endpoint diffs) are visited; when a net's driver requirement
      changes (bitwise), the inputs of its driver gate join their
      (earlier) waves.
    - The sorted slack list is kept: the rebuilt nets' entries are
      sorted and merged into the rest.

    A cold analysis ({!analyze}, i.e. [Sta.analyze]) is the pass in
    which every net is seeded.  An edit's backward cone can still be
    the whole fan-in — a requirement change at a net on the binding
    path of every upstream net moves them all — and then the pass
    visits every net backward.

    The engine keeps no copy of the design's connectivity: its checks,
    schedule and passes read the design's own index
    ({!Timing.find_gate}, {!Timing.net_drivers}, {!Timing.net_sinks}),
    which topology edits keep current as they write the design.

    A session loads a design once — wave schedule, one all-dirty pass
    against a private structure cache — then accepts a stream of typed
    {!edit}s and re-times only the {e dirty cone}.

    {b Bit-identity contract.}  After any sequence of applied edits,
    {!retime}'s report has bit-identical [nets], [critical_arrival],
    [critical_path], [slacks], [worst_slack] and [failures] to a cold
    [Sta.analyze] of the edited design, for every [jobs] value: both
    are passes of this engine, and a value a dirty-cone pass skips is
    the one an all-dirty pass would rewrite.  Only [stats] differs — it
    reports the incremental work actually done (the [eco_*] counters,
    recorded only by sessions) instead of the cold solve counts.  The
    session cache's {!Timing.cache_fingerprint} is kept equal to what a
    cold cached analyze of the {e current} design would publish, by
    refcounting each live net's cache keys and retiring entries at
    refcount zero, once every net a wave re-solved has claimed its new
    keys — so edit-then-revert restores the original fingerprint
    exactly.  See THEORY.md, "Incremental timing and dirty cones".

    Sessions are strict: a failing net rolls the session back to the
    last successfully-timed state (a {e full fallback}: the design
    edits since then are undone and the analysis rebuilt cold), and
    the failure is reported as an [Error].

    Not thread-safe: drive a session from one domain. *)

type edit =
  | Set_resistance of { net : string; index : int; value : float }
      (** set segment [index] (0-based) of [net]'s wire to [value] Ohms *)
  | Set_capacitance of { net : string; index : int; value : float }
      (** set segment [index]'s grounded capacitance to [value] Farads *)
  | Reroute of { net : string; index : int; seg_from : string; seg_to : string }
      (** re-anchor segment [index] between two net-local nodes,
          keeping its R/C values *)
  | Swap_sink of { inst : string; from_net : string; to_net : string }
      (** re-connect the first [from_net] input pin of gate [inst] to
          [to_net] *)
  | Set_inputs of { inst : string; inputs : string list }
      (** replace gate [inst]'s whole input list (the general form
          {!Swap_sink} is sugar for; also its undo image) *)
  | Set_drive of { inst : string; value : float }  (** drive resistance *)
  | Set_pin_cap of { inst : string; value : float }  (** input pin cap *)
  | Set_intrinsic of { inst : string; value : float }  (** intrinsic delay *)
  | Set_constraint of { net : string; required : float }
      (** add or overwrite a required-time constraint *)
  | Remove_constraint of { net : string }
  | Set_clock of { period : float }  (** set or overwrite the clock *)
  | Remove_clock

type totals = {
  total_edits : int;  (** edits applied (reverts included) *)
  total_retimes : int;  (** successful re-times, initial load included *)
  total_dirty : int;  (** nets re-solved across all re-times *)
  total_reused : int;
      (** nets whose solve was reused: per re-time, the scheduled nets
          minus the re-solved ones, whether the forward worklist
          visited them or not *)
  total_fallbacks : int;  (** full fallbacks taken *)
  total_forward_visits : int;
      (** nets the forward worklist visited (classified) across all
          re-times; every net on an all-dirty pass *)
  total_backward_visits : int;
      (** nets the backward worklist visited (required-time step)
          across all re-times; every net on an all-dirty pass *)
}

type t

val analyze :
  ?model:Timing.delay_model ->
  ?sparse:bool ->
  ?jobs:int ->
  ?strict:bool ->
  ?reduce:bool ->
  ?cache:Timing.cache ->
  Timing.design ->
  Timing.report
(** Cold analysis: build the engine over the design and run one pass
    with every net dirty, against the caller's [cache] or none.  No
    session state survives it and no [eco_*] counter is recorded.
    Re-exported, and documented, as [Sta.analyze]. *)

val create :
  ?model:Timing.delay_model ->
  ?sparse:bool ->
  ?jobs:int ->
  ?reduce:bool ->
  Timing.design ->
  t
(** Load a design: check it against its connectivity index, build the
    wave schedule, then run one all-dirty pass against the session's
    fresh cache.
    The session owns the design — callers must not mutate it behind
    the session's back.  Raises what [Sta.analyze] raises ([Malformed],
    [Not_a_dag]), and [Invalid_argument] on negative [jobs]. *)

val design : t -> Timing.design
(** The session's (edited) design — the exact object a scratch
    [Sta.analyze] must agree with. *)

val apply : t -> edit -> (unit, string) result
(** Validate and apply one edit.  [Error] leaves the session (and the
    design) untouched; [Ok] records the edit (and its undo image) and
    marks the affected cone dirty.  Re-timing is deferred to
    {!retime}, so an edit burst pays one propagation. *)

val retime : t -> (Timing.report, string) result
(** Re-time the dirty cone (no-op when nothing is pending) and return
    the report.  On a per-net failure (e.g. an edit made a threshold
    unreachable), rolls every edit since the last successful re-time
    back, rebuilds the analysis cold ({!totals}[.total_fallbacks]),
    and returns the failing net's diagnostic as [Error] — the session
    stays usable at its last good state. *)

val report : t -> Timing.report
(** The last successfully computed report (without re-timing; use
    {!retime} after edits). *)

val pending_edits : t -> int
(** Edits applied since the last successful re-time. *)

val revert : t -> (edit, string) result
(** Undo the most recent applied edit (reverts cross re-time
    boundaries: a session remembers its whole edit history since
    load).  Returns the edit that was undone.  [Error] when the
    history is empty. *)

val revert_all : t -> int
(** Undo the entire edit history, newest first; returns how many
    edits were undone.  A subsequent {!retime} restores the original
    report and cache fingerprint exactly. *)

val cache : t -> Timing.cache
(** The session's structure cache, for fingerprinting — equal, as a
    key set, to what a cold cached [Sta.analyze] of the current design
    publishes. *)

val totals : t -> totals
(** Cumulative ECO tallies since load.  Per re-time, [total_dirty] and
    [total_reused] add up to the scheduled nets, and the report's
    [stats] carry the same two counts as [eco_dirty_nets] and
    [eco_reused_nets]; the visit totals count the work each worklist
    did, and are what an O(cone) re-time keeps small. *)
