(** A small static timing analyzer built on AWE net-delay evaluation —
    the application context of the paper's introduction: a design is
    divided into stages, each a gate output driving an interconnect
    path (Fig. 1), and the per-stage delay comes from a reduced-order
    model of the stage's linear circuit.

    Gates use the classical linear model (paper, Section II): an
    output ("drive") resistance, an input capacitance per pin, and an
    intrinsic delay.  Nets are resistive trees (or meshes) with
    distributed capacitance.  Per-net delays are measured at a logic
    threshold on the AWE waveform; arrival times propagate through the
    gate/net DAG in topological order. *)

type cell = {
  cell_name : string;
  drive_res : float;  (** Thevenin output resistance, Ohms *)
  input_cap : float;  (** capacitance of each input pin, Farads *)
  intrinsic : float;  (** gate-internal delay, seconds *)
}

val cell : name:string -> drive_res:float -> input_cap:float -> intrinsic:float -> cell

type segment = {
  seg_from : string;
  seg_to : string;
  res : float;
  cap : float;  (** grounded capacitance at [seg_to] *)
}
(** One RC wire segment of a net; [seg_from]/[seg_to] are net-local
    node names, with ["drv"] the driver pin. *)

type delay_model =
  | Elmore_model  (** first-order: Elmore delay at each sink *)
  | Awe_model of int  (** AWE at a fixed order *)
  | Awe_auto  (** AWE with adaptive order control *)

type design

val create : ?vdd:float -> ?threshold:float -> unit -> design
(** [threshold] is the switching threshold as a fraction of [vdd]
    (default 0.5). *)

val add_gate :
  design -> inst:string -> cell:cell -> inputs:string list -> output:string -> unit
(** Declare a gate instance: [inputs] and [output] are net names.  The
    output net must be driven by exactly one gate or primary input.
    Files the instance into the design's connectivity index (see
    {!find_gate}).  Raises [Malformed] on a duplicate instance name. *)

val add_net : design -> name:string -> segments:segment list -> unit
(** Declare a net's interconnect tree.  Sinks attach (with their input
    capacitance, once per pin on the net — see {!pin_count}) at the
    net-local node that carries the sink gate's name, i.e. a segment
    whose [seg_to] equals the sink instance name. *)

val add_primary_input : design -> net:string -> ?arrival:float -> ?slew:float -> unit -> unit
(** Drive a net from outside the design ([slew] is the input rise time
    seen by the net, default 0 = ideal step).  Raises [Malformed] on a
    duplicate declaration for the same net, or on a negative [arrival]
    or [slew]. *)

val add_primary_output : design -> net:string -> unit
(** Raises [Malformed] on a duplicate declaration for the same net. *)

val add_constraint : ?line:int -> design -> net:string -> required:float -> unit
(** Require the signal on [net] to settle by [required] seconds: the
    net becomes a timing endpoint, and [Sta.analyze] back-propagates the
    requirement into per-pin slacks.  The requirement binds at the
    net's sink pins (where arrivals are measured), or at the driver
    pin when the net has no sinks (a primary-output stub).  [line]
    records the source line of the card for diagnostics.  Raises
    [Malformed] on a duplicate constraint for the same net or a
    negative/non-finite time. *)

val set_clock : ?line:int -> design -> period:float -> unit
(** Give every {e unconstrained} primary output a default required
    time of one clock period — the usual single-cycle constraint.
    Explicit {!add_constraint} cards win over the clock default.
    [line] records the source line of the card for diagnostics.
    Raises [Malformed] when a clock was already set or the period is
    not positive. *)

val clock_period : design -> float option

val constraints : design -> (string * float) list
(** All explicit constraints, sorted by net name. *)

val endpoints : design -> (string * float) list
(** The timing endpoints with their required times, sorted by net
    name: every explicit constraint, then the clock period at every
    primary output without one.  The one rule the engine's backward
    pass, {!critical_paths} and lint's coverage checks share. *)

val constraint_line : design -> string -> int option
(** Source line of the [constraint] card naming the net, when the
    design came from a parsed file (or the card was added with
    [~line]). *)

val clock_line : design -> int option
(** Source line of the [clock] card, when recorded. *)

(** {2 Connectivity index}

    A design owns one index of its connectivity — the instance table,
    the declaration order, and each net's drivers and sinks — kept
    current by {!add_gate} and {!set_gate_inputs} as the design is
    written, never built on first read, so concurrent readers (the
    timing engine's worker domains) only ever read it.  Every layer
    answers its driver, sink and instance questions here: the per-net
    solve, the engine's checks and wave schedule, {!critical_paths},
    {!Dag} and lint's design checks.  The orders are load-bearing: sink
    order fixes a stage circuit's pin numbering, its cache signature
    and the order of sinks in a report. *)

type gate = private {
  inst : string;
  cell : cell;
  inputs : string list;  (** input nets, in pin order *)
  output : string;  (** output net *)
  seq : int;  (** declaration position: 0 for the first gate declared *)
}
(** A gate instance as the index stores it; {!set_gate_cell} and
    {!set_gate_inputs} replace it. *)

val find_gate : design -> string -> gate
(** A gate instance, in O(1) and without allocating.  Raises
    [Malformed] on an unknown instance. *)

val net_drivers : design -> string -> string list
(** The instances whose output is the net, in declaration order
    ([[]] for a primary input or an undriven net; more than one only in
    a design the engine rejects).  O(1). *)

val net_sinks : design -> string -> string list
(** The instances listing the net among their inputs, one entry per
    gate however many of its pins are on the net, newest declared first
    — the order {!net_circuit} numbers sink pins in and a report lists
    a net's sinks in.  O(1); an edit never reorders it. *)

val pin_count : gate -> string -> int
(** How many of the gate's input pins sit on the net (0 when the gate
    is not its sink): the multiple of the cell's [input_cap] the gate
    loads the net with, in the solved stage ({!net_circuit}) and in
    lint's Elmore bounds alike. *)

(** {2 In-place edits}

    The ECO vocabulary ({!Session}): each mutator validates first and
    mutates only on success, so a rejected edit (raised [Malformed])
    leaves the design untouched.  Gate edits preserve declaration
    order — sink order, DAG edge order and worst-input tie-breaks all
    follow it, so an edited design analyzes exactly like a design
    built with the new values from scratch. *)

val replace_net_segments : design -> net:string -> segments:segment list -> unit
(** Replace a declared net's wire model.  Raises [Malformed] on an
    unknown net, an empty segment list, or non-positive resistance /
    negative capacitance values. *)

val set_gate_cell : design -> inst:string -> cell:cell -> unit
(** Replace a gate instance's cell (drive resistance, pin capacitance,
    intrinsic delay): one instance-table entry, the index's lists are
    untouched.  Raises [Malformed] on an unknown instance. *)

val set_gate_inputs : design -> inst:string -> inputs:string list -> unit
(** Replace a gate instance's input net list (pin order preserved as
    given).  The instance leaves the sink lists of the nets it drops
    and joins those of its new nets at its declaration position, in
    O(fanout) per net.  Raises [Malformed] on an unknown instance or an
    empty list; net existence is the caller's contract (as for
    {!add_gate}). *)

val set_required : design -> net:string -> required:float option -> unit
(** Set, update, or ([None]) remove the required-time constraint on a
    net.  Unlike {!add_constraint} this overwrites an existing
    constraint; the source-line attribution is dropped (the card no
    longer matches the value).  Raises [Malformed] on a
    negative/non-finite time. *)

val update_clock : design -> period:float option -> unit
(** Set, update, or ([None]) remove the clock period.  Unlike
    {!set_clock} this overwrites; the source-line attribution is
    dropped.  Raises [Malformed] on a non-positive period. *)

val primary_input : design -> string -> (float * float) option
(** [(arrival, slew)] of a primary-input net, if the net is one. *)

val gate_details : design -> (string * cell * string list * string) list
(** [(instance, cell, input nets, output net)] per gate, in
    declaration order — the full-record counterpart of {!gate_views},
    for whole-design walks that need the numeric cell values (the
    engine's up-front checks, design writers). *)

(** {2 Structural views}

    Read-only projections of a design's connectivity, for static
    analysis (the lint layer) without running any timing. *)

type gate_view = {
  gv_inst : string;
  gv_cell : string;
  gv_inputs : string list;  (** net names *)
  gv_output : string;  (** net name *)
}

val gate_views : design -> gate_view list
(** All gate instances, in declaration order. *)

val net_names : design -> string list
(** Names of all nets with a declared wire model, sorted. *)

val net_segments : design -> string -> segment list option
(** The wire segments of a net, if it has a declared wire model. *)

val primary_input_nets : design -> string list
(** Nets driven from outside the design, sorted. *)

val primary_output_nets : design -> string list
(** Declared primary outputs, in declaration order. *)

(** The net-level timing DAG: one vertex per referenced net name
    (declared nets, PI/PO and constraint targets, every gate pin),
    sorted; one edge from each distinct input net of a gate to its
    output net, successors and predecessors in gate declaration order.
    Built from the connectivity index the timing engine levels its
    waves over, so fixpoint passes (lint's cycle check and the
    backward constraint-coverage family) run over the engine's own
    graph.  Cyclic designs still build a [t] — the edges simply close
    a cycle — so static analyses can diagnose them before
    [Sta.analyze] raises [Not_a_dag]. *)
module Dag : sig
  type t = private {
    nets : string array;  (** sorted, unique *)
    index_tbl : (string, int) Hashtbl.t;
    succs : int array array;
    preds : int array array;
  }

  val of_design : design -> t

  val index : t -> string -> int option
end

exception Not_a_dag of string list
(** Combinational cycle through the named instances. *)

exception Malformed of string

type transition = Rise | Fall
(** Which signal edge a delay or slack refers to.  The stage circuits
    are linear, so a falling waveform is the rising one reflected
    about [vdd/2]: the fall delay is the rising response's crossing of
    the complementary level [(1 - threshold) * vdd].  At threshold 0.5
    the pair coincides; away from it min/max delays are distinct. *)

val transition_string : transition -> string
(** ["rise"] or ["fall"]. *)

type sink_timing = {
  sink_inst : string;
  net_delay : float;  (** rise threshold-crossing delay through the net *)
  net_delay_fall : float;  (** fall delay: the complementary crossing *)
  sink_slew : float;
      (** 10-90 transition time at the sink pin (reflection-invariant:
          one value serves both edges) *)
  arrival : float;  (** absolute rise arrival at the sink input *)
  arrival_fall : float;  (** absolute fall arrival at the sink input *)
}

type net_timing = {
  net_name : string;
  driver_arrival : float;  (** rise arrival at the driver pin *)
  driver_arrival_fall : float;  (** fall arrival at the driver pin *)
  sinks : sink_timing list;
}

type net_failure = {
  failed_net : string;
  reason : string;  (** the net's own diagnostic, or a propagation note *)
}
(** A net that could not be timed (non-strict mode only). *)

type pin_slack = {
  sp_net : string;
  sp_pin : string option;  (** sink instance; [None] = the driver pin *)
  sp_transition : transition;
      (** the {e binding} transition — the edge with less slack (ties
          go to rise) *)
  sp_arrival : float;
  sp_required : float;
  sp_slack : float;  (** [sp_required - sp_arrival]; negative = violated *)
}

type report = {
  nets : net_timing list;
  critical_arrival : float;  (** latest arrival at any primary output *)
  critical_path : string list;  (** nets on the latest path, source first *)
  slacks : pin_slack list;
      (** every pin a finite required time reaches (endpoint pins and
          everything upstream of them), at its binding transition,
          sorted worst slack first (ties by net then pin); empty when
          the design has no constraints and no clock *)
  worst_slack : float;
      (** minimum over [slacks]; [infinity] when unconstrained *)
  failures : net_failure list;
      (** nets skipped in non-strict mode, with their diagnostics;
          always empty when [strict] (the default) *)
  stats : Awe.Stats.snapshot;
      (** engine counters for this analysis: one MNA build and one
          factorization per net, however many sinks it has *)
}

type path_stage = {
  st_net : string;  (** the net this stage traverses *)
  st_pin : string option;
      (** arrival pin on [st_net]: a sink instance, or [None] for the
          driver pin (sinkless endpoint stub) *)
  st_gate_delay : float;
      (** intrinsic delay of the gate driving [st_net] (0 at a
          primary-input stage) *)
  st_net_delay : float;
      (** wire delay from the net's driver pin to [st_pin], at the
          path's transition (0 when [st_pin] is [None]) *)
  st_arrival : float;  (** absolute arrival at [st_pin] *)
}

type path = {
  path_endpoint : string;  (** endpoint net *)
  path_pin : string option;  (** endpoint pin ([None] = driver pin) *)
  path_transition : transition;  (** the endpoint pin's binding edge *)
  path_input_arrival : float;
      (** arrival card of the primary input sourcing the path *)
  path_arrival : float;
  path_required : float;
  path_slack : float;
  path_stages : path_stage list;
      (** source first; [path_input_arrival] plus the sum of every
          stage's gate and net delay reproduces [path_arrival] (up to
          floating-point re-association) *)
}

type cache
(** A structure-sharing cache across nets (and across [Sta.analyze]
    calls).  Two tiers: an {e exact} tier keyed on the value-exact
    canonical hash of the stage circuit (plus model, threshold, vdd,
    input slew and sink set), which serves a whole net's timings from
    the first identical instance; and a {e pattern} tier keyed on the
    topology-only hash, which reuses the symbolic sparse factorization
    across structurally identical nets ([sparse] runs only).  Guarded
    so hits are bit-identical to recomputation: the exact tier
    compares full construction-order signatures, the pattern tier
    re-checks the matrix pattern before reuse. *)

val create_cache : ?patterns:Awe.Cache.patterns -> unit -> cache
(** [patterns] (default: a fresh private store) is the pattern-tier
    store the cache shares — pass one store to several caches to share
    symbolic factorizations across them (see [Sta.analyze_corners]: the
    exact tier is value-keyed and must stay per-corner, but topology
    is corner-invariant). *)

val cache_fingerprint : cache -> (string * string) list * string list
(** A payload-free fingerprint of the cache contents: the sorted
    (hash, signature) pairs of the exact tier and the sorted pattern
    hashes of the symbolic tier.  Two caches populated by equivalent
    publication sequences compare equal — used by tests to assert that
    shard-merged contents match sequential publication for every
    [jobs] value. *)

(** {2 Engine hooks}

    The timing engine ({!Session}) solves every net through
    {!solve_net} — frozen-view / private-shard cache discipline — and,
    in a session, keeps the cache's key set equal to what a cold
    analysis of the current design would publish by refcounting the
    {!solve_keys} each live net uses and retiring entries at refcount
    zero. *)

type cache_view
(** An immutable snapshot of a cache's contents ({!Awe.Cache.view}),
    frozen once per wave. *)

type cache_shard
(** A task-private publication overlay ({!Awe.Cache.Shard}). *)

val cache_view : cache -> cache_view

val cache_shard : unit -> cache_shard

val cache_absorb : cache -> cache_shard -> unit
(** Replay a shard's publications into the cache in insertion order
    (first-wins) — absorb shards in chunk order to reproduce
    sequential publication (THEORY.md, "Sharded publication"). *)

val cache_remove_exact : cache -> hash:string -> signature:string -> bool
(** Retire one exact-tier entry; [true] when it existed. *)

val cache_remove_pattern : cache -> hash:string -> int
(** Retire all symbolic analyses under a pattern hash; returns how
    many were dropped. *)

val cache_bytes : cache -> int
(** Approximate heap footprint of the cache ({!Awe.Cache.bytes}). *)

val critical_candidates : design -> string list
(** The candidate nets the critical-arrival fold scans, in order:
    declared primary outputs in raw (newest-first) declaration order,
    or — when none are marked — every declared net in the net table's
    stable enumeration order.  Selection is by strict [>] (first seen
    wins), so the order fixes the tie-breaks. *)

type solve_keys = {
  sk_exact : (string * string) option;
      (** (hash, signature) of the exact-tier entry this solve hit or
          published; [None] when no cache view was consulted or the
          net has no sinks *)
  sk_pattern : string option;
      (** pattern hash of the symbolic entry ([sparse] runs only) *)
}

val solve_net :
  design ->
  model:delay_model ->
  sparse:bool ->
  reduce:bool ->
  view:cache_view option ->
  shard:cache_shard option ->
  net:string ->
  driver_res:float ->
  slew:float ->
  (string * float * float * float) list * solve_keys
(** Time one net — [(sink_inst, rise delay, fall delay, slew)] per
    sink, in sink order — through the per-net pipeline every analysis
    runs: reduction (when [reduce]), cache lookup against the frozen
    [view] then the private [shard], compute on miss, publication into
    the shard.  With [view = None] the net is solved uncached and the
    keys are empty.  Counters (cache verdicts, solver work) are
    recorded into the calling domain's {!Awe.Stats} window, so an
    engine wave that wraps chunks in [Awe.Stats.scoped] and absorbs
    shards in chunk order is bit-identical — results, counters, and
    final cache contents — for every chunking.  Raises [Malformed] on
    unknown nets, unattached sinks, and thresholds never crossed. *)

val net_circuit :
  design -> net:string -> driver_res:float -> slew:float ->
  Circuit.Netlist.circuit * (string * Circuit.Element.node) list
(** The stage circuit a net analysis solves (exposed for inspection and
    testing): Thevenin driver, wire segments, and per sink gate one
    load capacitor of its [input_cap] times its {!pin_count} on the
    net.  Returns the circuit and the sink-name to node mapping. *)

val critical_paths : design -> report -> k:int -> path list
(** The [k] worst slack paths, worst first — a pure function of an
    existing report (no re-analysis).  One candidate per endpoint pin,
    at its binding transition; candidates are peeled in
    (slack, net, pin) order, so the result is sorted, its endpoints
    are distinct, and ties break deterministically.  Each path is
    traced endpoint-to-source by replaying the arrival pass's
    worst-input selection, so its stages are exactly the nets whose
    arrivals produced the endpoint arrival.  Returns fewer than [k]
    paths when the design has fewer (timed) endpoint pins; the empty
    list when it is unconstrained.  Raises [Invalid_argument] on
    negative [k]. *)

(** {2 Multi-corner analysis} *)

val corner_design : design -> Circuit.Corner.t -> design
(** The design with every element value derated by the corner's
    multipliers: wire segment res/cap, cell drive resistance, pin
    capacitance and intrinsic delay.  Topology, primary inputs
    (arrival and slew cards), outputs, constraints and clock carry
    over unchanged. *)

type corner_run = {
  run_corner : Circuit.Corner.t;
  run_report : report;
  run_cache : cache option;
      (** this corner's private cache (pattern tier shared across the
          run's corners), for fingerprinting in differential tests;
          [None] when caching was disabled *)
}

type corner_summary = {
  cs_name : string;
  cs_critical_arrival : float;
  cs_worst_slack : float;
}

type corners_report = {
  runs : corner_run list;  (** in spec order *)
  summary : corner_summary list;  (** in spec order *)
  worst_corner : string;
      (** name of the corner with the minimum worst slack (ties go to
          spec order) *)
  worst_slack_overall : float;
  critical_arrival_overall : float;  (** max across corners *)
}

val pp_report : ?verbose:bool -> Format.formatter -> report -> unit
(** [verbose] (default [false]) appends the {!Awe.Stats} engine
    counters of the analysis.  Prints per-sink rise/fall delays, the
    critical path, and — when the design is constrained — the slack
    table, worst first. *)

val pp_slacks : Format.formatter -> report -> unit
(** The slack table alone: every pin slack, worst first, then the
    worst slack — the section {!pp_report} prints for a constrained
    design, and [awesim timing --slack]'s output. *)

val pp_paths : Format.formatter -> path list -> unit
(** Stage-by-stage rendering of {!critical_paths} output. *)

val pp_corners : Format.formatter -> corners_report -> unit
(** Per-corner summary lines plus the merged cross-corner verdict. *)

(** Text format for timing designs; see the format notes inside. *)
module Design_file : sig
  (** Text format for timing designs.

      Line-oriented; [*] starts a comment line, [;] separates wire
      segments, values accept SPICE magnitude suffixes.  Cards:

      {v
      vdd <volts>                      supply (default 5)
      threshold <fraction>             switching threshold (default 0.5)
      cell <name> <drive_res> <input_cap> <intrinsic>
      gate <inst> <cell> <output-net> <input-net> ...
      net <name> <from> <to> <r> <c> [; <from> <to> <r> <c>] ...
      input <net> [arrival=<t>] [slew=<t>]
      output <net>
      constraint <net> <time>          required arrival at an endpoint
      clock <period>                   default requirement for outputs
      v}

      A net's sinks attach at wire nodes named after the sink gate
      instances (see {!Sta.add_net}). *)

  exception Parse_error of int * string

  val parse_string : string -> design

  val parse_file : string -> design

end

(** Synthetic designs at scale, for benchmarks and parallel tests. *)
module Synth : sig
  (** Generators for 10k-100k-net synthetic designs with wide
      topological waves — the workloads on which wave-parallel
      analysis (and the structure cache) must actually pay.  Every
      generator is deterministic: the same parameters (and [seed],
      where one exists) always build the identical design, so reports
      are comparable across runs and across [jobs] values. *)

  val grid : rows:int -> cols:int -> unit -> design
  (** A [rows] x [cols] datapath-style grid: one 2-input gate per
      position, listening to its north and west neighbors (boundary
      positions listen to primary-input nets), driving a short RC
      trunk with arms to its south and east sinks.  Wire values repeat
      along anti-diagonals — i.e. within topological waves — so the
      design has the template regularity the structure cache exploits.
      Nets: [rows * cols + rows + cols] (10,200 at 100 x 100); wave
      width up to [min rows cols]. *)

  val clock_tree : levels:int -> fanout:int -> unit -> design
  (** An H-tree-style clock distribution: a root buffer fans out to
      [fanout] child buffers per level, [levels] levels deep, with
      drive strength and wire width tapering toward the leaves.  One
      cell and one wire template per level, so every net of a
      topological wave is the identical stage circuit — the
      best case for exact-tier sharing.  Nets:
      [(fanout^levels - 1) / (fanout - 1) + 1] (21,846 at
      [levels:8 ~fanout:4]); wave width grows geometrically to
      [fanout^(levels-1)]. *)

  val buffered_mesh : ?seed:int -> rows:int -> cols:int -> unit -> design
  (** The irregular counterpart of {!grid}: seeded random wire values
      (few repeated templates — the cache-hostile case) and random
      extra diagonal edges, so gates have two or three inputs and
      waves are ragged.  Deterministic per [seed]. *)

  val rc_ladder : stages:int -> length:int -> fanout:int -> unit -> design
  (** A chain of [stages] buffers, each driving a long uniform RC
      trunk ([length + stage mod 3] segments — long-chain interconnect
      in the style of arXiv 2508.13159) that ends in a hub carrying
      [fanout - 1] capacitive side stubs plus the arm to the next
      stage.  The workload where {!Circuit.Reduce} dominates: trunk
      interiors are chain-lump material, stubs are star-leg material,
      and the three unreduced trunk-length classes all reduce to one
      T-section template, so reduction also raises the pattern-tier
      hit rate.  Needs [stages >= 1], [length >= 3], [fanout >= 1]. *)

  val net_count : design -> int
  (** Number of nets with a declared wire model. *)
end
