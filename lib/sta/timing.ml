type cell = {
  cell_name : string;
  drive_res : float;
  input_cap : float;
  intrinsic : float;
}

let cell ~name ~drive_res ~input_cap ~intrinsic =
  (* negated comparisons so NaN values are rejected too *)
  if
    not
      (Float.is_finite drive_res && drive_res > 0.
      && Float.is_finite input_cap && input_cap >= 0.
      && Float.is_finite intrinsic && intrinsic >= 0.)
  then
    invalid_arg
      "Sta.cell: drive_res must be positive, input_cap and intrinsic \
       non-negative";
  { cell_name = name; drive_res; input_cap; intrinsic }

type segment = { seg_from : string; seg_to : string; res : float; cap : float }

type delay_model = Elmore_model | Awe_model of int | Awe_auto

type gate = {
  inst : string;
  cell : cell;
  inputs : string list; (* net names *)
  output : string; (* net name *)
  seq : int; (* declaration position: 0 for the first gate declared *)
}

type pi = { pi_arrival : float; pi_slew : float }

(* The design owns its connectivity index: the instance table, the
   declaration order, and per net its drivers and its sinks, all by
   instance name, so a cell edit rewrites one [gates] entry and leaves
   the rest alone.  [add_gate] and [set_gate_inputs], the only two
   topology writers, keep it current; every layer reads it (the solve
   path, the engine's schedule and checks, paths, the DAG, lint), so
   nothing rebuilds it and no pass runs lazily inside a pool task. *)
type design = {
  vdd : float;
  threshold : float;
  gates : (string, gate) Hashtbl.t; (* instance -> gate *)
  mutable order : string list; (* instances, newest declared first *)
  drivers : (string, string list) Hashtbl.t;
      (* net -> instances whose output it is, in declaration order *)
  sinks : (string, string list) Hashtbl.t;
      (* net -> instances listing it among their inputs, newest declared
         first, one entry per gate however many pins it uses; a net
         with no sink has no entry *)
  nets : (string, segment list) Hashtbl.t;
  pis : (string, pi) Hashtbl.t;
  mutable pos : string list;
  po_set : (string, unit) Hashtbl.t;
  required : (string, float) Hashtbl.t;
      (* net -> required arrival time (a timing constraint endpoint) *)
  required_lines : (string, int) Hashtbl.t;
      (* net -> source line of the constraint card, when parsed *)
  mutable clock : float option;
      (* default required time for unconstrained primary outputs *)
  mutable clock_ln : int option;
      (* source line of the clock card, when parsed *)
}

exception Not_a_dag of string list

exception Malformed of string

let malformed fmt = Printf.ksprintf (fun s -> raise (Malformed s)) fmt

let create ?(vdd = 5.) ?(threshold = 0.5) () =
  if not (Float.is_finite vdd && vdd > 0.) then
    invalid_arg "Sta.create: vdd must be positive";
  if not (threshold > 0. && threshold < 1.) then
    invalid_arg "Sta.create: threshold must be in (0, 1)";
  { vdd;
    threshold;
    gates = Hashtbl.create 16;
    order = [];
    drivers = Hashtbl.create 16;
    sinks = Hashtbl.create 16;
    nets = Hashtbl.create 16;
    pis = Hashtbl.create 4;
    pos = [];
    po_set = Hashtbl.create 4;
    required = Hashtbl.create 4;
    required_lines = Hashtbl.create 4;
    clock = None;
    clock_ln = None }

(* lookups on the engine's per-net paths: no allocation on a hit *)
let find_gate (d : design) inst =
  match Hashtbl.find d.gates inst with
  | g -> g
  | exception Not_found -> malformed "unknown gate instance %s" inst

let net_drivers (d : design) net =
  match Hashtbl.find d.drivers net with l -> l | exception Not_found -> []

let net_sinks (d : design) net =
  match Hashtbl.find d.sinks net with l -> l | exception Not_found -> []

let pin_count (g : gate) net =
  List.fold_left (fun n i -> if i = net then n + 1 else n) 0 g.inputs

let add_gate (d : design) ~inst ~cell ~inputs ~output =
  if Hashtbl.mem d.gates inst then malformed "duplicate gate instance %s" inst;
  Hashtbl.replace d.gates inst
    { inst; cell; inputs; output; seq = Hashtbl.length d.gates };
  d.order <- inst :: d.order;
  Hashtbl.replace d.drivers output (net_drivers d output @ [ inst ]);
  List.iter
    (fun net ->
      match net_sinks d net with
      | newest :: _ when newest = inst -> () (* a second pin on this net *)
      | sinks -> Hashtbl.replace d.sinks net (inst :: sinks))
    inputs

let add_net (d : design) ~name ~segments =
  if Hashtbl.mem d.nets name then malformed "duplicate net %s" name;
  Hashtbl.replace d.nets name segments

let add_primary_input (d : design) ~net ?(arrival = 0.) ?(slew = 0.) () =
  if Hashtbl.mem d.pis net then malformed "duplicate primary input %s" net;
  if not (Float.is_finite arrival && arrival >= 0.) then
    malformed "primary input %s: arrival must be non-negative" net;
  if not (Float.is_finite slew && slew >= 0.) then
    malformed "primary input %s: slew must be non-negative" net;
  Hashtbl.replace d.pis net { pi_arrival = arrival; pi_slew = slew }

let add_primary_output (d : design) ~net =
  if Hashtbl.mem d.po_set net then malformed "duplicate primary output %s" net;
  Hashtbl.replace d.po_set net ();
  d.pos <- net :: d.pos

let add_constraint ?line (d : design) ~net ~required =
  if Hashtbl.mem d.required net then
    malformed "duplicate constraint on net %s" net;
  if not (Float.is_finite required && required >= 0.) then
    malformed "constraint on net %s: required time must be non-negative" net;
  Hashtbl.replace d.required net required;
  match line with
  | Some ln -> Hashtbl.replace d.required_lines net ln
  | None -> ()

let set_clock ?line (d : design) ~period =
  (match d.clock with
  | Some _ -> malformed "duplicate clock card"
  | None -> ());
  if not (Float.is_finite period && period > 0.) then
    malformed "clock period must be positive";
  d.clock <- Some period;
  d.clock_ln <- line

let clock_period (d : design) = d.clock

let constraint_line (d : design) net = Hashtbl.find_opt d.required_lines net

let clock_line (d : design) = d.clock_ln

let constraints (d : design) =
  Hashtbl.fold (fun net t acc -> (net, t) :: acc) d.required []
  |> List.sort compare

let endpoints (d : design) =
  let clocked =
    match d.clock with
    | None -> []
    | Some period ->
      List.filter_map
        (fun net ->
          if Hashtbl.mem d.required net then None else Some (net, period))
        d.pos
  in
  Hashtbl.fold (fun net t acc -> (net, t) :: acc) d.required clocked
  |> List.sort compare

(* --- in-place edits (the Session layer's vocabulary) ---------------
   Each mutator validates first and only then mutates, so a rejected
   edit leaves the design untouched.  Gate order is load-bearing (sink
   order, DAG edge order, worst-input tie-breaks all follow declaration
   order), so edits must never reorder it: a gate keeps its declaration
   position whatever is edited. *)

let validate_segments net segments =
  if segments = [] then malformed "net %s has no segments" net;
  List.iter
    (fun s ->
      if not (Float.is_finite s.res && s.res > 0.) then
        malformed "net %s: segment resistance must be positive" net;
      if not (Float.is_finite s.cap && s.cap >= 0.) then
        malformed "net %s: segment capacitance must be non-negative" net)
    segments

let replace_net_segments (d : design) ~net ~segments =
  if not (Hashtbl.mem d.nets net) then malformed "unknown net %s" net;
  validate_segments net segments;
  Hashtbl.replace d.nets net segments

let set_gate_cell (d : design) ~inst ~cell =
  let g = find_gate d inst in
  Hashtbl.replace d.gates inst { g with cell }

(* The instance leaves the sink lists of the nets it no longer lists
   and joins those of its new nets at its declaration position, so
   every list reads as if the design had been declared with the new
   inputs. *)
let set_gate_inputs (d : design) ~inst ~inputs =
  if inputs = [] then malformed "gate %s has no inputs" inst;
  let g = find_gate d inst in
  List.iter
    (fun net ->
      if not (List.mem net inputs) then
        match List.filter (fun s -> s <> inst) (net_sinks d net) with
        | [] -> Hashtbl.remove d.sinks net
        | sinks -> Hashtbl.replace d.sinks net sinks)
    (List.sort_uniq compare g.inputs);
  let rec file = function
    | s :: rest when (find_gate d s).seq > g.seq -> s :: file rest
    | sinks -> inst :: sinks
  in
  List.iter
    (fun net ->
      if not (List.mem net g.inputs) then
        Hashtbl.replace d.sinks net (file (net_sinks d net)))
    (List.sort_uniq compare inputs);
  Hashtbl.replace d.gates inst { g with inputs }

let set_required (d : design) ~net ~required =
  match required with
  | None ->
    Hashtbl.remove d.required net;
    Hashtbl.remove d.required_lines net
  | Some t ->
    if not (Float.is_finite t && t >= 0.) then
      malformed "constraint on net %s: required time must be non-negative" net;
    Hashtbl.replace d.required net t;
    Hashtbl.remove d.required_lines net

let update_clock (d : design) ~period =
  (match period with
  | Some p when not (Float.is_finite p && p > 0.) ->
    malformed "clock period must be positive"
  | _ -> ());
  d.clock <- period;
  d.clock_ln <- None

let primary_input (d : design) net =
  Option.map
    (fun pi -> (pi.pi_arrival, pi.pi_slew))
    (Hashtbl.find_opt d.pis net)

let gate_details (d : design) =
  List.rev_map
    (fun inst ->
      let g = find_gate d inst in
      (g.inst, g.cell, g.inputs, g.output))
    d.order

type transition = Rise | Fall

let transition_string = function Rise -> "rise" | Fall -> "fall"

type sink_timing = {
  sink_inst : string;
  net_delay : float;
  net_delay_fall : float;
  sink_slew : float;
  arrival : float;
  arrival_fall : float;
}

type net_timing = {
  net_name : string;
  driver_arrival : float;
  driver_arrival_fall : float;
  sinks : sink_timing list;
}

type net_failure = { failed_net : string; reason : string }

type pin_slack = {
  sp_net : string;
  sp_pin : string option;
  sp_transition : transition;
  sp_arrival : float;
  sp_required : float;
  sp_slack : float;
}

type report = {
  nets : net_timing list;
  critical_arrival : float;
  critical_path : string list;
  slacks : pin_slack list;
  worst_slack : float;
  failures : net_failure list;
  stats : Awe.Stats.snapshot;
}

type path_stage = {
  st_net : string;
  st_pin : string option;
  st_gate_delay : float;
  st_net_delay : float;
  st_arrival : float;
}

type path = {
  path_endpoint : string;
  path_pin : string option;
  path_transition : transition;
  path_input_arrival : float;
  path_arrival : float;
  path_required : float;
  path_slack : float;
  path_stages : path_stage list;
}

(* read-only structural views, for the lint layer *)
type gate_view = {
  gv_inst : string;
  gv_cell : string;
  gv_inputs : string list;
  gv_output : string;
}

let gate_views (d : design) =
  List.rev_map
    (fun inst ->
      let g = find_gate d inst in
      { gv_inst = g.inst;
        gv_cell = g.cell.cell_name;
        gv_inputs = g.inputs;
        gv_output = g.output })
    d.order

let net_names (d : design) =
  Hashtbl.fold (fun k _ acc -> k :: acc) d.nets [] |> List.sort compare

let net_segments (d : design) net = Hashtbl.find_opt d.nets net

let primary_input_nets (d : design) =
  Hashtbl.fold (fun k _ acc -> k :: acc) d.pis [] |> List.sort compare

let primary_output_nets (d : design) = List.rev d.pos

(* The candidate-net enumeration the critical-arrival fold runs over.
   Selection is by strict [>], first-seen wins, so the order is part of
   the tie-break contract: primary outputs in raw (newest-first)
   declaration order, or every declared net in the net table's
   enumeration order when none are marked. *)
let critical_candidates (d : design) =
  if d.pos = [] then Hashtbl.fold (fun k _ acc -> k :: acc) d.nets []
  else d.pos

(* --- the net-level timing DAG, exported for fixpoint passes -------- *)

(* One vertex per referenced net name (declared nets, PI/PO/constraint
   targets, and every gate pin), one edge from each distinct input net
   of a gate to its output net: the edges the engine's wave schedule
   levels declared nets along, read from the same index.  This graph
   also tolerates cycles and undeclared names, so the lint layer's
   cycle check and backward passes (constraint coverage, dominated
   constraints) run over it before any timing does. *)
module Dag = struct
  type t = {
    nets : string array;  (* sorted, unique *)
    index_tbl : (string, int) Hashtbl.t;
    succs : int array array;
    preds : int array array;
  }

  let of_design (d : design) =
    let names = Hashtbl.create 64 in
    let add n = if not (Hashtbl.mem names n) then Hashtbl.replace names n () in
    Hashtbl.iter (fun n _ -> add n) d.nets;
    Hashtbl.iter (fun n _ -> add n) d.pis;
    List.iter add d.pos;
    Hashtbl.iter (fun n _ -> add n) d.required;
    Hashtbl.iter (fun n _ -> add n) d.drivers;
    Hashtbl.iter (fun n _ -> add n) d.sinks;
    let nets =
      Hashtbl.fold (fun k () acc -> k :: acc) names []
      |> List.sort compare |> Array.of_list
    in
    let index_tbl = Hashtbl.create (Array.length nets) in
    Array.iteri (fun i n -> Hashtbl.replace index_tbl n i) nets;
    let index n = Hashtbl.find index_tbl n in
    (* both edge lists in gate declaration order: a net's successors
       are its sink gates' outputs (one per gate), its predecessors
       each driver's distinct inputs in pin order *)
    let rec distinct = function
      | [] -> []
      | x :: rest -> x :: distinct (List.filter (fun y -> y <> x) rest)
    in
    let succs net =
      List.rev_map (fun s -> index (find_gate d s).output) (net_sinks d net)
    in
    let preds net =
      List.concat_map
        (fun s -> List.map index (distinct (find_gate d s).inputs))
        (net_drivers d net)
    in
    { nets;
      index_tbl;
      succs = Array.map (fun n -> Array.of_list (succs n)) nets;
      preds = Array.map (fun n -> Array.of_list (preds n)) nets }

  let index t net = Hashtbl.find_opt t.index_tbl net
end

let net_circuit (d : design) ~net ~driver_res ~slew =
  let segments =
    match Hashtbl.find_opt d.nets net with
    | Some s -> s
    | None -> malformed "net %s has no wire model" net
  in
  let b = Circuit.Netlist.create () in
  let wave =
    if slew <= 0. then Circuit.Element.Step { v0 = 0.; v1 = d.vdd }
    else
      Circuit.Element.Ramp { v0 = 0.; v1 = d.vdd; t_delay = 0.; t_rise = slew }
  in
  Circuit.Netlist.add_v b "vdrv" "src" "0" wave;
  Circuit.Netlist.add_r b "rdrv" "src" "drv" driver_res;
  List.iteri
    (fun i seg ->
      Circuit.Netlist.add_r b
        (Printf.sprintf "rw%d" i)
        seg.seg_from seg.seg_to seg.res;
      if seg.cap > 0. then
        Circuit.Netlist.add_c b
          (Printf.sprintf "cw%d" i)
          seg.seg_to "0" seg.cap)
    segments;
  (* sink loads, newest-declared sink first: the order fixes the pin
     numbering, the node order and so the cache signature.  A gate with
     several pins on the net loads it with one capacitor per gate, of
     its input capacitance times that pin count. *)
  let sink_nodes = ref [] in
  List.iteri
    (fun i inst ->
      let g = find_gate d inst in
      (* a sink attaches at the net node named after the instance *)
      let attached =
        List.exists (fun seg -> seg.seg_to = g.inst) segments
      in
      if not attached then
        malformed "net %s has no segment reaching sink %s" net g.inst;
      let cap = float_of_int (pin_count g net) *. g.cell.input_cap in
      if cap > 0. then
        Circuit.Netlist.add_c b (Printf.sprintf "cpin%d" i) g.inst "0" cap;
      sink_nodes := (g.inst, Circuit.Netlist.node b g.inst) :: !sink_nodes)
    (net_sinks d net);
  (Circuit.Netlist.freeze b, List.rev !sink_nodes)

(* ------------------------------------------------------------------ *)
(* Structure-sharing cache.  Timing designs stamp the same few
   interconnect templates thousands of times; the cache lets the
   analysis done for one instance serve every relabeled copy.

   Exact tier: the whole per-net result — each sink's (delay, slew)
   keyed by sink node id.  The key folds in everything the numbers
   depend on beyond the circuit: delay model, threshold, vdd, input
   slew, sparse flag, and the ordered sink node ids (a zero-cap sink
   adds no element, so the sink set is not derivable from the circuit
   alone).  The guard signature makes a hit
   sound and bit-exact: equal signatures mean the instance stamps an
   MNA system identical entry for entry, so the cached numbers are the
   ones recomputation would produce.  A merely isomorphic instance
   (relabeled nodes — a permuted matrix with different rounding)
   shares the hash but fails the guard and misses.

   Pattern tier: the symbolic sparse analysis keyed on the
   topology-only hash.  A hit skips ordering/pivoting/fill analysis;
   the numeric refactorization still runs, so the factors are
   bit-identical to an uncached run. *)

type cache_payload = {
  cp_sinks : (Circuit.Element.node * (float * float * float)) list;
      (* sink node id -> (rise delay, fall delay, slew); complete for
         any instance that passes the guard, because the signature
         fixes the node ids *)
  cp_stats : Awe.Stats.snapshot;
      (* the work counters of the computation that built this entry;
         replayed on every exact hit so cached and uncached analyses
         report identical solve counts (see {!Awe.Stats.replay}) *)
  cp_pattern_hit : bool;
      (* whether the computation that built this entry reused a
         symbolic from the frozen view.  A shard-level exact hit
         stands for recomputing against the same frozen view, which
         would have reached the same verdict (same circuit, same view,
         deterministic pattern probe) — so the hit replays this
         verdict into the pattern-hit/miss counters, keeping them
         bit-identical to a run without shard dedup. *)
}

type cache = cache_payload Awe.Cache.t

let create_cache ?patterns () : cache = Awe.Cache.create ?patterns ()

let cache_fingerprint (c : cache) =
  (Awe.Cache.exact_keys c, Awe.Cache.symbolic_keys c)

(* Narrow wrappers over the abstract [cache] so the engine (Session)
   can run its per-wave freeze/shard/absorb discipline, and retire
   entries its refcounts prove dead, without the payload type escaping
   this module. *)

type cache_view = cache_payload Awe.Cache.view

type cache_shard = cache_payload Awe.Cache.Shard.t

let cache_view (c : cache) : cache_view = Awe.Cache.view c

let cache_shard () : cache_shard = Awe.Cache.Shard.create ()

let cache_absorb (c : cache) (sh : cache_shard) = Awe.Cache.absorb c sh

let cache_remove_exact (c : cache) ~hash ~signature =
  Awe.Cache.remove_exact c ~hash ~signature

let cache_remove_pattern (c : cache) ~hash = Awe.Cache.remove_symbolic c ~hash

let cache_bytes (c : cache) = Awe.Cache.bytes c

type solve_keys = {
  sk_exact : (string * string) option;
  sk_pattern : string option;
}

let no_keys = { sk_exact = None; sk_pattern = None }

let cache_keys (d : design) ~model ~options ~slew ~circuit ~sink_nodes =
  let tag =
    match model with
    | Elmore_model -> "E"
    | Awe_model q -> "Q" ^ string_of_int q
    | Awe_auto -> "A"
  in
  let ctx =
    Printf.sprintf "%s:%b:%Lx:%Lx:%Lx:%s" tag options.Awe.sparse
      (Int64.bits_of_float slew)
      (Int64.bits_of_float d.threshold)
      (Int64.bits_of_float d.vdd)
      (String.concat ","
         (List.map (fun (_, n) -> string_of_int n) sink_nodes))
  in
  let h = Circuit.Canon.hashes circuit in
  let exact = Digest.to_hex (Digest.string (ctx ^ "|" ^ h.Circuit.Canon.exact)) in
  let signature = ctx ^ "|" ^ h.Circuit.Canon.signature in
  (exact, signature, h.Circuit.Canon.pattern)

(* threshold delay and output slew of every sink of one net, from ONE
   MNA build, one factorization, and one shared moment-vector sequence
   (paper, Section 3.2 / eq. 56).  The AWE models analyze the net with
   its actual (possibly ramped) excitation; the Elmore model analyzes
   the net driven by an ideal step and adds half the input transition
   (paper Section 4.3 / Cirit's correction), so the step variant of
   the stage circuit is only built when that model asks for it.

   Each sink gets a rise/fall transition pair from the same response
   model: the stage circuit is linear, so the falling waveform is the
   rising one reflected about vdd/2 — the fall delay is the rising
   response's crossing of the complementary level (1 - threshold)*vdd.
   At threshold 0.5 the pair coincides; away from it the min/max
   delays are distinct.  (The 10-90 slew is reflection-invariant, so
   one slew serves both transitions.)

   Returns [(sink_inst, rise_delay, fall_delay, slew)] per sink, plus
   the symbolic sparse analysis the factorization used (if any). *)
let compute_sink_timings (d : design) ~model ~options ~symbolic ~net ~slew
    ~circuit ~sink_nodes =
  let threshold_v = d.threshold *. d.vdd in
  let fall_v = (1. -. d.threshold) *. d.vdd in
  try
    Awe.Stats.record_mna_build ();
    let sys = Circuit.Mna.build circuit in
    let engine = Awe.Engine.create ~options ?symbolic sys in
    let timings =
      match model with
      | Elmore_model ->
        let elmore = Awe.Batch.elmore_all ~engine sys in
        (* single-exponential threshold crossing plus half the input
           transition, and the single-exponential 10-90 slew.  The
           falling exponential vdd*exp(-t/tau) crosses threshold*vdd
           at -tau*ln(threshold). *)
        let frac = d.threshold in
        List.map
          (fun (inst, node) ->
            let td = List.assoc node elmore in
            ( inst,
              (-.td *. log (1. -. frac)) +. (0.5 *. slew),
              (-.td *. log frac) +. (0.5 *. slew),
              td *. log 9. ))
          sink_nodes
      | Awe_model _ | Awe_auto ->
        let fixed_order =
          match model with
          | Awe_model q ->
            Awe.Batch.approximate_all ~engine sys
              ~nodes:(List.map snd sink_nodes)
              ~q
          | Awe_auto | Elmore_model -> []
        in
        List.map
          (fun (inst, node) ->
            let a =
              match
                List.find_opt (fun r -> r.Awe.Batch.node = node) fixed_order
              with
              | Some { Awe.Batch.outcome = Awe.Batch.Approximation a; _ } -> a
              | Some { Awe.Batch.outcome = Awe.Batch.Failed _; _ } | None ->
                (* adaptive model, or a sink whose fixed-order fit is
                   degenerate/unstable: escalate on the same engine — the
                   shared moments are extended, never recomputed *)
                fst (Awe.Engine.auto engine ~node)
            in
            (* search horizon: generous multiple of the first-order time
               scale, extended by the input transition itself *)
            let tau = Float.max (Awe.Engine.elmore engine ~node) 1e-15 in
            let t_max = (50. *. tau) +. (2. *. slew) in
            let delay =
              match Awe.delay a ~threshold:threshold_v ~t_max with
              | Some t -> t
              | None -> malformed "net never crosses the threshold"
            in
            (* the complementary crossing of the same response; a
               non-monotone fit can miss it within the horizon — fall
               back to the rise value to stay total *)
            let delay_fall =
              match Awe.delay a ~threshold:fall_v ~t_max with
              | Some t -> t
              | None -> delay
            in
            let t10 =
              Awe.Approx.crossing_time a.Awe.response ~threshold:(0.1 *. d.vdd)
                ~t_max
            in
            let t90 =
              Awe.Approx.crossing_time a.Awe.response ~threshold:(0.9 *. d.vdd)
                ~t_max
            in
            let slew =
              match (t10, t90) with
              | Some a, Some b when b > a -> b -. a
              | _ -> tau *. log 9.
            in
            (inst, delay, delay_fall, slew))
          sink_nodes
    in
    (timings, Awe.Engine.symbolic engine)
  with
  (* funnel sparse-layer singularities into the STA's own error
     vocabulary: the stage circuit's node names are net-local, so the
     message already points at the offending pin *)
  | Circuit.Mna.Singular_dc msg -> malformed "net %s: %s" net msg
  | Invalid_argument msg -> malformed "net %s: %s" net msg

(* Time one net, consulting the frozen cache view when there is one
   and the task's private shard after it.  Cache counters are recorded
   here, inside the caller's per-task stats window, so they merge as
   deterministically as every other counter — and they are recorded
   from the {e frozen-view} verdict alone: whether a chunk-mate's
   shard entry happened to short-circuit the work is an execution
   detail that must not (and does not) show up in any counter, or the
   counters would vary with the chunking and therefore with [jobs].
   Also returns the cache keys the lookup used, so the engine can
   refcount live entries. *)
let solve_net (d : design) ~model ~sparse ~reduce ~view ~shard ~net ~driver_res
    ~slew =
  let options = { Awe.default_options with Awe.sparse } in
  (* the Elmore model analyzes the ideal-step drive; the AWE models the
     actual (possibly ramped) excitation *)
  let wire_slew =
    match model with Elmore_model -> 0. | Awe_model _ | Awe_auto -> slew
  in
  let circuit, sink_nodes = net_circuit d ~net ~driver_res ~slew:wire_slew in
  if sink_nodes = [] then ([], no_keys)
  else
    (* model-order reduction before stamping (and before the cache
       keys are derived, so isomorphic-after-reduction stages share
       pattern-tier entries).  Sink pins are ports: never eliminated,
       only renumbered. *)
    let circuit, sink_nodes =
      if not reduce then (circuit, sink_nodes)
      else begin
        let r =
          Circuit.Reduce.reduce ~ports:(List.map snd sink_nodes) circuit
        in
        let rep = r.Circuit.Reduce.report in
        Awe.Stats.record_reduction
          ~nodes:rep.Circuit.Reduce.nodes_eliminated
          ~elements:rep.Circuit.Reduce.elements_eliminated
          ~parallels:rep.Circuit.Reduce.parallel_merges
          ~series:rep.Circuit.Reduce.series_merges
          ~chains:rep.Circuit.Reduce.chain_lumps
          ~stars:rep.Circuit.Reduce.star_merges;
        ( r.Circuit.Reduce.circuit,
          List.map
            (fun (inst, n) -> (inst, r.Circuit.Reduce.node_map.(n)))
            sink_nodes )
      end
    in
    match view with
    | None ->
      let timings, _symbolic =
        compute_sink_timings d ~model ~options ~symbolic:None ~net ~slew
          ~circuit ~sink_nodes
      in
      (timings, no_keys)
    | Some v -> (
      let exact_hash, signature, pattern =
        cache_keys d ~model ~options ~slew ~circuit ~sink_nodes
      in
      let keys =
        { sk_exact = Some (exact_hash, signature);
          sk_pattern = (if options.Awe.sparse then Some pattern else None) }
      in
      (* serve a whole net from a payload (view or shard tier): equal
         signatures fix the sink node ids, so every sink has its
         cached per-node numbers — the ones recomputation would
         produce *)
      let serve payload =
        List.map
          (fun (inst, node) ->
            match List.assoc_opt node payload.cp_sinks with
            | Some (dly, dlf, slw) -> (inst, dly, dlf, slw)
            | None ->
              malformed "net %s: cache entry has no timing for sink %s" net
                inst)
          sink_nodes
      in
      match Awe.Cache.find_exact v ~hash:exact_hash ~signature with
      | Some payload ->
        Awe.Stats.record_cache_exact_hit ();
        (* the hit stands for the original computation: replay its
           work counters so the report's solve counts are identical
           to an uncached run *)
        Awe.Stats.replay payload.cp_stats;
        (serve payload, keys)
      | None -> (
        let shard_exact =
          match shard with
          | None -> None
          | Some sh -> Awe.Cache.Shard.find_exact sh ~hash:exact_hash ~signature
        in
        match shard_exact with
        | Some payload ->
          (* A chunk-mate computed this exact stage earlier in the
             wave.  Recomputing against the same frozen view would
             have reached the same verdict and the same work counts
             (same circuit, same view, deterministic pattern probe),
             so replay both: the counters cannot tell the dedup
             happened. *)
          if payload.cp_pattern_hit then Awe.Stats.record_cache_pattern_hit ()
          else Awe.Stats.record_cache_miss ();
          Awe.Stats.replay payload.cp_stats;
          (serve payload, keys)
        | None ->
          let view_candidate =
            if options.Awe.sparse then
              match Awe.Cache.find_symbolic v ~hash:pattern with
              | s :: _ -> Some s
              | [] -> None
            else None
          in
          (* a chunk-mate's symbolic is only consulted when the view
             offers nothing, so the view-verdict (and the counters) are
             untouched; reusing it instead of analyzing afresh is
             counter-neutral because [Moments.make] records one
             factorization either way and the numeric refactorization
             produces bit-identical factors *)
          let shard_candidate =
            match (view_candidate, shard) with
            | None, Some sh when options.Awe.sparse -> (
              match Awe.Cache.Shard.find_symbolic sh ~hash:pattern with
              | s :: _ -> Some s
              | [] -> None)
            | _ -> None
          in
          let candidate =
            match view_candidate with
            | Some _ -> view_candidate
            | None -> shard_candidate
          in
          let before = Awe.Stats.snapshot () in
          let timings, used =
            compute_sink_timings d ~model ~options ~symbolic:candidate ~net
              ~slew ~circuit ~sink_nodes
          in
          let work = Awe.Stats.diff (Awe.Stats.snapshot ()) before in
          let reused_from_view =
            match (used, view_candidate) with
            | Some u, Some s -> u == s
            | _ -> false
          in
          if reused_from_view then Awe.Stats.record_cache_pattern_hit ()
          else Awe.Stats.record_cache_miss ();
          let payload =
            { cp_sinks =
                List.map2
                  (fun (_, node) (_, dly, dlf, slw) -> (node, (dly, dlf, slw)))
                  sink_nodes timings;
              cp_stats = work;
              cp_pattern_hit = reused_from_view }
          in
          (match shard with
          | None -> ()
          | Some sh ->
            Awe.Cache.Shard.publish_exact sh ~hash:exact_hash ~signature
              payload;
            (match used with
            | Some u when not reused_from_view ->
              (* freshly analyzed (or taken from the shard — the
                 shard's own dedup drops that republication) *)
              Awe.Cache.Shard.publish_symbolic sh ~hash:pattern u
            | _ -> ()));
          (timings, keys)))

(* ------------------------------------------------------------------ *)
(* Top-K critical paths.  A pure function of (design, report): the
   report already holds every per-pin arrival, so path extraction is a
   backward trace, not a re-analysis.  Candidates are the endpoint
   pins (the pins a constraint or the clock period binds directly),
   each at its binding transition; the K worst are peeled in
   (slack, net, pin) order — distinct endpoints, deterministic ties —
   and each is traced source-ward by replaying the forward pass's
   worst-input selection (strict >, first wins), so the reported
   stages are exactly the nets whose arrivals produced the endpoint's
   arrival. *)
let critical_paths (d : design) (r : report) ~k =
  if k < 0 then invalid_arg "Sta.critical_paths: k must be non-negative";
  let timed : (string, net_timing) Hashtbl.t = Hashtbl.create 16 in
  List.iter (fun nt -> Hashtbl.replace timed nt.net_name nt) r.nets;
  let sink_results : (string * string, sink_timing) Hashtbl.t =
    Hashtbl.create 16
  in
  List.iter
    (fun nt ->
      List.iter
        (fun st -> Hashtbl.replace sink_results (nt.net_name, st.sink_inst) st)
        nt.sinks)
    r.nets;
  let candidates =
    List.concat_map
      (fun (net, t) ->
        match Hashtbl.find_opt timed net with
        | None -> [] (* untimed endpoint (failed upstream): no path *)
        | Some nt ->
          let pins =
            match nt.sinks with
            | [] -> [ (None, nt.driver_arrival, nt.driver_arrival_fall) ]
            | sinks ->
              List.map
                (fun st -> (Some st.sink_inst, st.arrival, st.arrival_fall))
                sinks
          in
          List.map
            (fun (pin, ar, af) ->
              let sr = t -. ar and sf = t -. af in
              let tr, arr, sl =
                if sf < sr then (Fall, af, sf) else (Rise, ar, sr)
              in
              (net, pin, tr, arr, t, sl))
            pins)
      (endpoints d)
  in
  let candidates =
    List.sort
      (fun (n1, p1, _, _, _, s1) (n2, p2, _, _, _, s2) ->
        compare (s1, n1, p1) (s2, n2, p2))
      candidates
  in
  let rec take n l =
    match (n, l) with
    | 0, _ | _, [] -> []
    | n, x :: tl -> x :: take (n - 1) tl
  in
  let arrival_of tr (st : sink_timing) =
    match tr with Rise -> st.arrival | Fall -> st.arrival_fall
  in
  let delay_of tr (st : sink_timing) =
    match tr with Rise -> st.net_delay | Fall -> st.net_delay_fall
  in
  let trace endpoint_net pin tr =
    (* walk from the endpoint to a primary input, building stages
       newest-first; [up] receives the pin the path arrives at *)
    let rec up net pin_opt acc =
      let net_delay, arrival =
        match pin_opt with
        | Some inst ->
          let st = Hashtbl.find sink_results (net, inst) in
          (delay_of tr st, arrival_of tr st)
        | None ->
          let nt = Hashtbl.find timed net in
          ( 0.,
            match tr with
            | Rise -> nt.driver_arrival
            | Fall -> nt.driver_arrival_fall )
      in
      (* a report exists only for a design whose nets have at most one
         source *)
      match net_drivers d net with
      | [] ->
        (* a primary input sources the path; its arrival card is the
           path's input arrival (same for both transitions) *)
        let input_arrival =
          match Hashtbl.find_opt timed net with
          | Some nt -> (
            match tr with
            | Rise -> nt.driver_arrival
            | Fall -> nt.driver_arrival_fall)
          | None -> 0.
        in
        let stage =
          { st_net = net;
            st_pin = pin_opt;
            st_gate_delay = 0.;
            st_net_delay = net_delay;
            st_arrival = arrival }
        in
        (input_arrival, stage :: acc)
      | inst :: _ ->
        let g = find_gate d inst in
        let stage =
          { st_net = net;
            st_pin = pin_opt;
            st_gate_delay = g.cell.intrinsic;
            st_net_delay = net_delay;
            st_arrival = arrival }
        in
        (* replay the forward fold: worst input by RISE arrival,
           strict >, first wins — fall arrivals rode the same path *)
        let worst_net, _ =
          List.fold_left
            (fun (accn, acca) inp ->
              match Hashtbl.find_opt sink_results (inp, g.inst) with
              | None -> (accn, acca)
              | Some s ->
                if s.arrival > acca then (inp, s.arrival) else (accn, acca))
            (net, neg_infinity) g.inputs
        in
        up worst_net (Some g.inst) (stage :: acc)
    in
    up endpoint_net pin []
  in
  List.map
    (fun (net, pin, tr, arr, req, slack) ->
      let input_arrival, stages = trace net pin tr in
      { path_endpoint = net;
        path_pin = pin;
        path_transition = tr;
        path_input_arrival = input_arrival;
        path_arrival = arr;
        path_required = req;
        path_slack = slack;
        path_stages = stages })
    (take k candidates)

(* ------------------------------------------------------------------ *)
(* Multi-corner analysis: the derated design and the report types.
   [Sta.analyze_corners] runs one cold analysis per [corner_design]. *)
let corner_design (d : design) (c : Circuit.Corner.t) =
  let d' = create ~vdd:d.vdd ~threshold:d.threshold () in
  List.iter
    (fun (inst, cl, inputs, output) ->
      add_gate d' ~inst
        ~cell:
          (cell ~name:cl.cell_name
             ~drive_res:(cl.drive_res *. c.Circuit.Corner.cell_drive)
             ~input_cap:(cl.input_cap *. c.Circuit.Corner.cell_cap)
             ~intrinsic:(cl.intrinsic *. c.Circuit.Corner.cell_intrinsic))
        ~inputs ~output)
    (gate_details d);
  Hashtbl.iter
    (fun name segs ->
      add_net d' ~name
        ~segments:
          (List.map
             (fun s ->
               { s with
                 res = s.res *. c.Circuit.Corner.wire_res;
                 cap = s.cap *. c.Circuit.Corner.wire_cap })
             segs))
    d.nets;
  Hashtbl.iter
    (fun net pi ->
      add_primary_input d' ~net ~arrival:pi.pi_arrival ~slew:pi.pi_slew ())
    d.pis;
  List.iter (fun net -> add_primary_output d' ~net) (List.rev d.pos);
  Hashtbl.iter (fun net t -> Hashtbl.replace d'.required net t) d.required;
  Hashtbl.iter
    (fun net ln -> Hashtbl.replace d'.required_lines net ln)
    d.required_lines;
  d'.clock <- d.clock;
  d'.clock_ln <- d.clock_ln;
  d'

type corner_run = {
  run_corner : Circuit.Corner.t;
  run_report : report;
  run_cache : cache option;
      (* this corner's private cache (shared pattern tier), exposed so
         differential tests can fingerprint it *)
}

type corner_summary = {
  cs_name : string;
  cs_critical_arrival : float;
  cs_worst_slack : float;
}

type corners_report = {
  runs : corner_run list; (* spec order *)
  summary : corner_summary list; (* spec order *)
  worst_corner : string; (* minimum worst slack; ties to spec order *)
  worst_slack_overall : float;
  critical_arrival_overall : float;
}

let pin_string = function None -> "(driver)" | Some inst -> inst

let pp_slacks ppf r =
  Format.fprintf ppf "@[<v>slack (worst first):";
  List.iter
    (fun s ->
      Format.fprintf ppf
        "@,  %-10s %-8s %-4s arrival %.4g ns  required %.4g ns  slack \
         %.4g ns"
        s.sp_net (pin_string s.sp_pin)
        (transition_string s.sp_transition)
        (s.sp_arrival *. 1e9) (s.sp_required *. 1e9) (s.sp_slack *. 1e9))
    r.slacks;
  Format.fprintf ppf "@,worst slack: %.4g ns%s@]" (r.worst_slack *. 1e9)
    (if r.worst_slack < 0. then "  (VIOLATED)" else "")

let pp_report ?(verbose = false) ppf r =
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun nt ->
      Format.fprintf ppf "net %-10s driver@@%.4g ns@," nt.net_name
        (nt.driver_arrival *. 1e9);
      List.iter
        (fun s ->
          Format.fprintf ppf
            "  -> %-8s delay %.4g/%.4g ns  slew %.4g ns  arrival %.4g ns@,"
            s.sink_inst (s.net_delay *. 1e9) (s.net_delay_fall *. 1e9)
            (s.sink_slew *. 1e9) (s.arrival *. 1e9))
        nt.sinks)
    r.nets;
  List.iter
    (fun f ->
      Format.fprintf ppf "net %-10s FAILED: %s@," f.failed_net f.reason)
    r.failures;
  Format.fprintf ppf "critical arrival: %.4g ns via %a"
    (r.critical_arrival *. 1e9)
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf " -> ")
       Format.pp_print_string)
    r.critical_path;
  if r.slacks <> [] then Format.fprintf ppf "@,%a" pp_slacks r;
  if verbose then
    Format.fprintf ppf "@,engine counters (%d nets):@,%a"
      (List.length r.nets) Awe.Stats.pp r.stats;
  Format.fprintf ppf "@]"

let pp_paths ppf paths =
  Format.fprintf ppf "@[<v>";
  List.iteri
    (fun i p ->
      if i > 0 then Format.fprintf ppf "@,";
      Format.fprintf ppf
        "path %d: %s %s %s  arrival %.4g ns  required %.4g ns  slack %.4g \
         ns%s@,"
        (i + 1) p.path_endpoint (pin_string p.path_pin)
        (transition_string p.path_transition)
        (p.path_arrival *. 1e9) (p.path_required *. 1e9)
        (p.path_slack *. 1e9)
        (if p.path_slack < 0. then "  (VIOLATED)" else "");
      Format.fprintf ppf "  input arrival %.4g ns" (p.path_input_arrival *. 1e9);
      List.iter
        (fun st ->
          Format.fprintf ppf
            "@,  %-10s %-8s gate %.4g ns  net %.4g ns  arrival %.4g ns"
            st.st_net (pin_string st.st_pin) (st.st_gate_delay *. 1e9)
            (st.st_net_delay *. 1e9) (st.st_arrival *. 1e9))
        p.path_stages)
    paths;
  Format.fprintf ppf "@]"

let pp_corners ppf cr =
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun s ->
      Format.fprintf ppf
        "corner %-10s critical arrival %.4g ns  worst slack %.4g ns%s@,"
        s.cs_name
        (s.cs_critical_arrival *. 1e9)
        (s.cs_worst_slack *. 1e9)
        (if s.cs_worst_slack < 0. then "  (VIOLATED)" else ""))
    cr.summary;
  Format.fprintf ppf
    "across corners: critical arrival %.4g ns, worst slack %.4g ns at %s"
    (cr.critical_arrival_overall *. 1e9)
    (cr.worst_slack_overall *. 1e9)
    cr.worst_corner;
  Format.fprintf ppf "@]"

(* ------------------------------------------------------------------ *)
module Design_file = struct
  exception Parse_error of int * string

  let fail line fmt = Printf.ksprintf (fun s -> raise (Parse_error (line, s))) fmt

  let value_exn line tok =
    match Circuit.Parser.parse_value tok with
    | Some v -> v
    | None -> fail line "cannot parse value %S" tok

  let tokens_of line =
    String.split_on_char ' ' line
    |> List.concat_map (String.split_on_char '\t')
    |> List.filter (fun s -> s <> "")

  let parse_string text =
    let lines =
      String.split_on_char '\n' text
      |> List.mapi (fun i l -> (i + 1, String.trim l))
      |> List.filter (fun (_, l) -> l <> "" && l.[0] <> '*')
    in
    (* first pass: header values, validated where they appear so a bad
       vdd/threshold reports its own line instead of [create] raising
       after the pass *)
    let vdd = ref 5. and threshold = ref 0.5 in
    List.iter
      (fun (ln, l) ->
        match tokens_of l with
        | [ "vdd"; v ] ->
          let x = value_exn ln v in
          if not (Float.is_finite x && x > 0.) then
            fail ln "vdd must be positive";
          vdd := x
        | [ "threshold"; v ] ->
          let x = value_exn ln v in
          if not (x > 0. && x < 1.) then fail ln "threshold must be in (0, 1)";
          threshold := x
        | "vdd" :: _ -> fail ln "vdd expects one value"
        | "threshold" :: _ -> fail ln "threshold expects one value"
        | _ -> ())
      lines;
    let d = create ~vdd:!vdd ~threshold:!threshold () in
    let cells = Hashtbl.create 8 in
    let key_value ln tok =
      match String.split_on_char '=' tok with
      | [ k; v ] -> (String.lowercase_ascii k, value_exn ln v)
      | _ -> fail ln "expected key=value, got %S" tok
    in
    List.iter
      (fun (ln, l) ->
        (* card handlers validate as they build; report their
           complaints (duplicate declarations, bad values) with the
           offending line *)
        try
          match tokens_of l with
          | "vdd" :: _ | "threshold" :: _ -> ()
          | [ "cell"; name; dr; cap; intr ] ->
          if Hashtbl.mem cells name then fail ln "duplicate cell %s" name;
          Hashtbl.replace cells name
            (cell ~name ~drive_res:(value_exn ln dr)
               ~input_cap:(value_exn ln cap)
               ~intrinsic:(value_exn ln intr))
        | "gate" :: inst :: cell_name :: output :: inputs ->
          let cell =
            match Hashtbl.find_opt cells cell_name with
            | Some c -> c
            | None -> fail ln "unknown cell %s" cell_name
          in
          if inputs = [] then fail ln "gate %s has no inputs" inst;
          add_gate d ~inst ~cell ~inputs ~output
        | "net" :: name :: rest ->
          (* segments separated by ";" tokens, each: from to r c *)
          let groups =
            List.fold_left
              (fun acc tok ->
                if tok = ";" then [] :: acc
                else
                  match acc with
                  | g :: acc' -> (tok :: g) :: acc'
                  | [] -> [ [ tok ] ])
              [ [] ] rest
            |> List.rev_map List.rev
            |> List.filter (fun g -> g <> [])
          in
          let segments =
            List.map
              (fun g ->
                match g with
                | [ from_; to_; r; c ] ->
                  let res = value_exn ln r and cap = value_exn ln c in
                  if not (Float.is_finite res && res > 0.) then
                    fail ln "segment resistance must be positive";
                  if not (Float.is_finite cap && cap >= 0.) then
                    fail ln "segment capacitance must be non-negative";
                  { seg_from = from_; seg_to = to_; res; cap }
                | _ -> fail ln "net segment needs <from> <to> <r> <c>")
              groups
          in
          if segments = [] then fail ln "net %s has no segments" name;
          add_net d ~name ~segments
        | [ "constraint"; net; t ] ->
          add_constraint ~line:ln d ~net ~required:(value_exn ln t)
        | [ "clock"; p ] -> set_clock ~line:ln d ~period:(value_exn ln p)
        | "constraint" :: _ -> fail ln "constraint expects <net> <time>"
        | "clock" :: _ -> fail ln "clock expects one period value"
        | "input" :: net :: params ->
          let arrival = ref 0. and slew = ref 0. in
          List.iter
            (fun p ->
              match key_value ln p with
              | "arrival", v -> arrival := v
              | "slew", v -> slew := v
              | k, _ -> fail ln "unknown input parameter %S" k)
            params;
          add_primary_input d ~net ~arrival:!arrival ~slew:!slew ()
        | [ "output"; net ] -> add_primary_output d ~net
        | card :: _ -> fail ln "unknown card %S" card
        | [] -> ()
        with
        | Malformed msg | Invalid_argument msg -> fail ln "%s" msg)
      lines;
    d

  let parse_file path =
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> parse_string (really_input_string ic (in_channel_length ic)))

end

(* ------------------------------------------------------------------ *)
(* Synthetic designs at scale.  The paper's figures and the test decks
   are tens of nets; making parallel analysis pay (or regress) only
   shows up on designs big enough that per-wave fan-out dominates the
   fixed costs.  These generators stamp the regular structures real
   designs are made of — datapath grids, clock trees, irregular
   meshes — at 10k-100k nets, with wide topological waves. *)
module Synth = struct
  let net_count (d : design) = Hashtbl.length d.nets

  (* values in the chain-design regime: ~100 Ohm gates, fF-scale wire
     and pin caps, ps-scale intrinsics — AWE's comfortable range *)
  let grid_cells =
    [| cell ~name:"sg_nand" ~drive_res:150. ~input_cap:7e-15
         ~intrinsic:25e-12;
       cell ~name:"sg_nor" ~drive_res:200. ~input_cap:9e-15
         ~intrinsic:35e-12 |]

  let grid ~rows ~cols () =
    if rows < 1 || cols < 1 then
      invalid_arg "Sta.Synth.grid: need rows >= 1 and cols >= 1";
    let d = create () in
    let gate_name r c = Printf.sprintf "g%d_%d" r c in
    let net_name r c = Printf.sprintf "w%d_%d" r c in
    let pi_north c = Printf.sprintf "pn%d" c in
    let pi_west r = Printf.sprintf "pw%d" r in
    for r = 0 to rows - 1 do
      for c = 0 to cols - 1 do
        let north = if r = 0 then pi_north c else net_name (r - 1) c in
        let west = if c = 0 then pi_west r else net_name r (c - 1) in
        add_gate d ~inst:(gate_name r c)
          ~cell:grid_cells.((r + c) mod 2)
          ~inputs:[ north; west ]
          ~output:(net_name r c)
      done
    done;
    (* each output net runs a short trunk, then arms to its south and
       east sinks.  Values repeat along anti-diagonals ((r + c) mod 4),
       i.e. within topological waves — the template regularity real
       datapaths have, which the structure cache exists to exploit. *)
    let wire r c sinks =
      let v = float_of_int ((r + c) mod 4) in
      let trunk = { seg_from = "drv"; seg_to = "t"; res = 80. +. (10. *. v); cap = 4e-15 } in
      trunk
      :: List.map
           (fun s ->
             { seg_from = "t"; seg_to = s; res = 120. +. (15. *. v); cap = 3e-15 })
           sinks
    in
    for r = 0 to rows - 1 do
      for c = 0 to cols - 1 do
        let sinks =
          (if r + 1 < rows then [ gate_name (r + 1) c ] else [])
          @ if c + 1 < cols then [ gate_name r (c + 1) ] else []
        in
        add_net d ~name:(net_name r c) ~segments:(wire r c sinks)
      done
    done;
    for c = 0 to cols - 1 do
      add_net d ~name:(pi_north c)
        ~segments:
          [ { seg_from = "drv"; seg_to = gate_name 0 c; res = 100.; cap = 5e-15 } ];
      add_primary_input d ~net:(pi_north c) ();
      add_primary_output d ~net:(net_name (rows - 1) c)
    done;
    for r = 0 to rows - 1 do
      add_net d ~name:(pi_west r)
        ~segments:
          [ { seg_from = "drv"; seg_to = gate_name r 0; res = 100.; cap = 5e-15 } ];
      add_primary_input d ~net:(pi_west r) ();
      if r < rows - 1 then add_primary_output d ~net:(net_name r (cols - 1))
    done;
    d

  let clock_tree ~levels ~fanout () =
    if levels < 1 then invalid_arg "Sta.Synth.clock_tree: need levels >= 1";
    if fanout < 2 then invalid_arg "Sta.Synth.clock_tree: need fanout >= 2";
    let d = create () in
    (* drive strength tapers toward the leaves, wire width with it:
       one cell and one wire template per level, so every net of a
       topological wave is the identical stage circuit *)
    let buf_cell =
      Array.init levels (fun lvl ->
          cell
            ~name:(Printf.sprintf "ct_buf%d" lvl)
            ~drive_res:(80. +. (25. *. float_of_int lvl))
            ~input_cap:5e-15 ~intrinsic:15e-12)
    in
    let rec build lvl inst in_net =
      let out_net = "n_" ^ inst in
      add_gate d ~inst ~cell:buf_cell.(lvl) ~inputs:[ in_net ] ~output:out_net;
      if lvl = levels - 1 then begin
        (* leaf buffer: a stub load net, marked as a primary output *)
        add_net d ~name:out_net
          ~segments:
            [ { seg_from = "drv"; seg_to = "t"; res = 60.; cap = 8e-15 } ];
        add_primary_output d ~net:out_net
      end
      else begin
        let children =
          List.init fanout (fun k -> Printf.sprintf "%s_%d" inst k)
        in
        let lv = float_of_int lvl in
        let segments =
          { seg_from = "drv"; seg_to = "t"; res = 40. +. (8. *. lv); cap = 6e-15 }
          :: List.concat
               (List.mapi
                  (fun k child ->
                    (* two arm templates per level (H-tree near/far
                       arms), identical across the wave's nets *)
                    let arm = Printf.sprintf "a%d" k in
                    let stretch = if k mod 2 = 0 then 1. else 1.4 in
                    [ { seg_from = "t";
                        seg_to = arm;
                        res = (70. +. (10. *. lv)) *. stretch;
                        cap = 4e-15 };
                      { seg_from = arm; seg_to = child; res = 50.; cap = 3e-15 } ])
                  children)
        in
        add_net d ~name:out_net ~segments;
        List.iter (fun child -> build (lvl + 1) child out_net) children
      end
    in
    add_net d ~name:"clk"
      ~segments:[ { seg_from = "drv"; seg_to = "b"; res = 30.; cap = 10e-15 } ];
    add_primary_input d ~net:"clk" ();
    build 0 "b" "clk";
    d

  let buffered_mesh ?(seed = 91) ~rows ~cols () =
    if rows < 2 || cols < 2 then
      invalid_arg "Sta.Synth.buffered_mesh: need rows >= 2 and cols >= 2";
    let st = Random.State.make [| seed |] in
    let d = create () in
    let gate_name r c = Printf.sprintf "m%d_%d" r c in
    let net_name r c = Printf.sprintf "x%d_%d" r c in
    let pi_north c = Printf.sprintf "qn%d" c in
    let pi_west r = Printf.sprintf "qw%d" r in
    (* irregular counterpart of [grid]: seeded per-net wire values (few
       repeated templates — the cache-hostile case) and random extra
       diagonal listeners.  All flags are drawn up front, row-major,
       so the stream — and therefore the design — is a pure function
       of [seed]. *)
    let diag = Array.init rows (fun _ -> Array.init cols (fun _ -> false)) in
    for r = 1 to rows - 1 do
      for c = 1 to cols - 1 do
        diag.(r).(c) <- Random.State.float st 1. < 0.3
      done
    done;
    for r = 0 to rows - 1 do
      for c = 0 to cols - 1 do
        let north = if r = 0 then pi_north c else net_name (r - 1) c in
        let west = if c = 0 then pi_west r else net_name r (c - 1) in
        let inputs =
          (north :: west
           :: (if diag.(r).(c) then [ net_name (r - 1) (c - 1) ] else []))
        in
        add_gate d ~inst:(gate_name r c)
          ~cell:grid_cells.(((r * 3) + c) mod 2)
          ~inputs ~output:(net_name r c)
      done
    done;
    let wire sinks =
      let trunk =
        { seg_from = "drv";
          seg_to = "t";
          res = 60. +. Random.State.float st 120.;
          cap = 2e-15 +. Random.State.float st 6e-15 }
      in
      trunk
      :: List.map
           (fun s ->
             { seg_from = "t";
               seg_to = s;
               res = 90. +. Random.State.float st 140.;
               cap = 2e-15 +. Random.State.float st 5e-15 })
           sinks
    in
    for r = 0 to rows - 1 do
      for c = 0 to cols - 1 do
        let sinks =
          (if r + 1 < rows then [ gate_name (r + 1) c ] else [])
          @ (if c + 1 < cols then [ gate_name r (c + 1) ] else [])
          @
          if r + 1 < rows && c + 1 < cols && diag.(r + 1).(c + 1) then
            [ gate_name (r + 1) (c + 1) ]
          else []
        in
        add_net d ~name:(net_name r c) ~segments:(wire sinks)
      done
    done;
    for c = 0 to cols - 1 do
      add_net d ~name:(pi_north c)
        ~segments:
          [ { seg_from = "drv";
              seg_to = gate_name 0 c;
              res = 80. +. Random.State.float st 60.;
              cap = 4e-15 } ];
      add_primary_input d ~net:(pi_north c) ();
      add_primary_output d ~net:(net_name (rows - 1) c)
    done;
    for r = 0 to rows - 1 do
      add_net d ~name:(pi_west r)
        ~segments:
          [ { seg_from = "drv";
              seg_to = gate_name r 0;
              res = 80. +. Random.State.float st 60.;
              cap = 4e-15 } ];
      add_primary_input d ~net:(pi_west r) ();
      if r < rows - 1 then add_primary_output d ~net:(net_name r (cols - 1))
    done;
    d

  let ladder_cell =
    cell ~name:"rl_buf" ~drive_res:120. ~input_cap:6e-15 ~intrinsic:20e-12

  let rc_ladder ~stages ~length ~fanout () =
    if stages < 1 then invalid_arg "Sta.Synth.rc_ladder: need stages >= 1";
    if length < 3 then invalid_arg "Sta.Synth.rc_ladder: need length >= 3";
    if fanout < 1 then invalid_arg "Sta.Synth.rc_ladder: need fanout >= 1";
    let d = create () in
    let gate_name i = Printf.sprintf "rl%d" i in
    let net_name i = Printf.sprintf "ln%d" i in
    (* each stage drives a long uniform RC trunk (the 2508.13159
       long-chain regime: every trunk interior node is chain-interior
       material) ending in a hub with [fanout - 1] capacitive side
       stubs (star-leg material) plus the arm to the next stage's
       input pin.  Trunk length and values vary with [stage mod 3], so
       the unreduced design has three stage-circuit topology classes —
       after reduction every stage lumps to the same T-section
       template, which is exactly the canonicalization the pattern
       tier rewards. *)
    let ladder i sinks =
      let cls = i mod 3 in
      let len = length + cls in
      let v = float_of_int cls in
      let seg k =
        { seg_from = (if k = 0 then "drv" else Printf.sprintf "t%d" k);
          seg_to = Printf.sprintf "t%d" (k + 1);
          res = 45. +. (7. *. v);
          cap = 2.5e-15 +. (0.4e-15 *. v) }
      in
      let hub = Printf.sprintf "t%d" len in
      let stubs =
        List.init (fanout - 1) (fun j ->
            { seg_from = hub;
              seg_to = Printf.sprintf "s%d" j;
              res = 90. +. (12. *. float_of_int j);
              cap = 5e-15 +. (0.6e-15 *. float_of_int j) })
      in
      let arms =
        List.map
          (fun s -> { seg_from = hub; seg_to = s; res = 70.; cap = 3e-15 })
          sinks
      in
      List.init len seg @ stubs @ arms
    in
    for i = 0 to stages - 1 do
      let input = if i = 0 then "lin" else net_name (i - 1) in
      add_gate d ~inst:(gate_name i) ~cell:ladder_cell ~inputs:[ input ]
        ~output:(net_name i)
    done;
    add_net d ~name:"lin"
      ~segments:
        [ { seg_from = "drv"; seg_to = gate_name 0; res = 60.; cap = 4e-15 } ];
    add_primary_input d ~net:"lin" ();
    for i = 0 to stages - 1 do
      let sinks = if i + 1 < stages then [ gate_name (i + 1) ] else [] in
      add_net d ~name:(net_name i) ~segments:(ladder i sinks)
    done;
    add_primary_output d ~net:(net_name (stages - 1));
    d
end
