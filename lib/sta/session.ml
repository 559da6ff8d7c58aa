(* The timing engine, and ECO sessions on top of it (see session.mli).
   Per net the engine keeps its arrival tuple, solved sink delays,
   required times and slack entries, plus the memo inputs the solve
   depended on (input slew, driver resistance, the cache keys it hit
   or published).  One pass drains two worklists over the wave
   schedule.  Forward, it visits the nets an edit touched and, wave by
   wave, the sink-gate outputs of every net whose record changed
   (bitwise compare): it re-solves the visited nets whose solve inputs
   changed and re-adds arrivals for the rest.  Backward, it re-runs the
   min-plus required-time step from the re-solved and
   requirement-seeded nets, upstream only while a driver requirement
   changed.  The slack order is kept sorted across passes: the rebuilt
   nets' entries are sorted and merged into the rest.  A cold
   [analyze] is the pass in which every net is seeded; a session
   re-time is the same pass after edits, so the two agree by
   construction.  Solves fan out per wave in contiguous chunks of the
   sorted wave, against cache views frozen at wave start, with
   per-chunk shards absorbed in chunk order — which is what makes
   every report bit-identical for every [jobs] value. *)

open Timing

type edit =
  | Set_resistance of { net : string; index : int; value : float }
  | Set_capacitance of { net : string; index : int; value : float }
  | Reroute of { net : string; index : int; seg_from : string; seg_to : string }
  | Swap_sink of { inst : string; from_net : string; to_net : string }
  | Set_inputs of { inst : string; inputs : string list }
  | Set_drive of { inst : string; value : float }
  | Set_pin_cap of { inst : string; value : float }
  | Set_intrinsic of { inst : string; value : float }
  | Set_constraint of { net : string; required : float }
  | Remove_constraint of { net : string }
  | Set_clock of { period : float }
  | Remove_clock

type totals = {
  total_edits : int;
  total_retimes : int;
  total_dirty : int;
  total_reused : int;
  total_fallbacks : int;
  total_forward_visits : int;
  total_backward_visits : int;
}

(* What a net's last solve depended on (beyond upstream arrivals,
   which enter additively) and what it produced.  [m_valid = false]
   means the net's own content changed: the timings can no longer be
   served and the net must be re-solved. *)
type memo = {
  mutable m_valid : bool;
  m_slew : float;
  m_driver_res : float;
  m_timings : (string * float * float * float) list;
  m_keys : solve_keys;
}

type t = {
  d : design;
  model : delay_model;
  sparse : bool;
  reduce : bool;
  jobs : int;
  mutable cache : cache option; (* [None]: uncached analysis *)
  names : string list; (* every net, sorted: the report's [nets] order *)
  mutable waves : string list array; (* sorted within each wave *)
  wave_of : (string, int) Hashtbl.t;
  mutable schedule_valid : bool;
  memo : (string, memo) Hashtbl.t;
  arrival : (string, float * float * float * string option) Hashtbl.t;
      (* net -> driver-pin rise arrival, fall arrival, slew, worst input
         net ([None] at a primary input).  Fall arrivals ride along the
         rise-worst input: selection is by rise arrival, so both
         transitions telescope along the same net sequence. *)
  timed : (string, net_timing) Hashtbl.t;
  sink_results : (string * string, sink_timing) Hashtbl.t;
      (* entries for sinks a topology edit removed linger; they are
         unreachable (all reads go through current gate inputs or
         current [timed] sinks) and carry no report state *)
  req_driver : (string, float * float) Hashtbl.t;
  req_sinks : (string, (float * float) list) Hashtbl.t;
      (* net -> the requirement at each sink pin, in the order of its
         record's sinks *)
  endpoint_req : (string, float) Hashtbl.t;
  mutable endpoints_stale : bool;
  mutable slacks : pin_slack list; (* every pin slack, in [slack_order] *)
  (* cache-key refcounts over live nets: entries are retired at zero
     so the cache's key set always equals what a cold cached analyze
     of the current design would publish *)
  exact_refs : (string * string, int) Hashtbl.t;
  pattern_refs : (string, int) Hashtbl.t;
  touched : (string, unit) Hashtbl.t;
      (* nets an edit touched: their memo went stale, or their arrival
         inputs (driver-gate inputs, intrinsic) changed; consumed as
         the next forward pass's seeds *)
  req_seed : (string, unit) Hashtbl.t;
      (* nets whose required-time inputs changed without a re-solve
         (intrinsic edits, endpoint diffs); consumed by the next
         backward pass *)
  mutable undo : (edit * edit) list; (* (applied, inverse), newest first *)
  mutable undo_saved : (edit * edit) list; (* at last successful re-time *)
  mutable rollback : edit list;
      (* inverses restoring the last successfully-timed design,
         newest first; cleared on success, replayed on fallback *)
  mutable pending : int;
  mutable last_report : report option;
  mutable totals : totals;
}

(* What one pass did: nets re-solved, nets reused (scheduled minus
   re-solved), and nets each worklist visited. *)
type work = { w_dirty : int; w_reused : int; w_forward : int; w_backward : int }

let fail fmt = Printf.ksprintf (fun s -> raise (Malformed s)) fmt

let segments_of t net =
  match net_segments t.d net with
  | Some s -> s
  | None -> fail "unknown net %s" net

let distinct nets = List.sort_uniq compare nets

let rec replace_first lst a b =
  match lst with
  | [] -> []
  | x :: rest -> if x = a then b :: rest else x :: replace_first rest a b

(* --- schedule ----------------------------------------------------- *)

(* Kahn waves in one in-degree pass over the design's connectivity
   index.  Primary-input nets are wave 0; a gate's output net lands one
   wave past its latest input, once every distinct input net has
   retired (a zero-input gate never fires).  Popping FIFO from all
   roots visits nets in nondecreasing wave order, so the last input to
   retire is the latest one.  Waves are then filled from the sorted
   net list, so each is sorted.  Nets no wave reaches — a combinational
   cycle, an undriven net — raise [Not_a_dag] before anything is
   solved. *)
let compute_waves t =
  let d = t.d and names = t.names and wave_of = t.wave_of in
  let unretired : (string, int) Hashtbl.t = Hashtbl.create 256 in
  Hashtbl.reset wave_of;
  let queue = Queue.create () in
  List.iter
    (fun net ->
      if primary_input d net <> None then begin
        Hashtbl.replace wave_of net 0;
        Queue.add net queue
      end)
    names;
  let nwaves = ref 0 in
  while not (Queue.is_empty queue) do
    let net = Queue.pop queue in
    let w = Hashtbl.find wave_of net in
    nwaves := w + 1;
    List.iter
      (fun inst ->
        let g = find_gate d inst in
        let k =
          match Hashtbl.find_opt unretired g.output with
          | Some k -> k - 1
          | None -> List.length (distinct g.inputs) - 1
        in
        Hashtbl.replace unretired g.output k;
        if k = 0 then begin
          Hashtbl.replace wave_of g.output (w + 1);
          Queue.add g.output queue
        end)
      (net_sinks d net)
  done;
  let waves = Array.make !nwaves [] and stuck = ref [] in
  List.iter
    (fun net ->
      match Hashtbl.find_opt wave_of net with
      | Some w -> waves.(w) <- net :: waves.(w)
      | None -> stuck := net :: !stuck)
    (List.rev names);
  if !stuck <> [] then raise (Not_a_dag !stuck);
  t.waves <- waves;
  t.schedule_valid <- true

(* --- forward-pass helpers ----------------------------------------- *)

(* A net's arrival tuple, pulled from the sink results of its driver
   gate's inputs: the worst input by rise arrival (strict [>] in input
   order, first wins) plus the gate's intrinsic delay; a primary input
   contributes its arrival card and slew.  The checks in [engine] leave
   every other scheduled net exactly one driver.  The tuple names its
   worst input rather than carrying the path, so it depends only on
   the driver gate and its inputs' records: a path change further
   upstream leaves it alone. *)
let compute_arrival t net =
  match primary_input t.d net with
  | Some (arr, slew) -> (arr, arr, slew, None)
  | None ->
    let g = find_gate t.d (List.hd (net_drivers t.d net)) in
    let inst = g.inst in
    let worst, worst_net =
      List.fold_left
        (fun (acc, accn) inp ->
          let s = Hashtbl.find t.sink_results (inp, inst) in
          if s.arrival > acc then (s.arrival, inp) else (acc, accn))
        (neg_infinity, "") g.inputs
    in
    let worst_sink = Hashtbl.find t.sink_results (worst_net, inst) in
    ( worst +. g.cell.intrinsic,
      worst_sink.arrival_fall +. g.cell.intrinsic,
      worst_sink.sink_slew,
      Some worst_net )

let driver_res_of t net =
  match net_drivers t.d net with
  | inst :: _ -> (find_gate t.d inst).cell.drive_res
  | [] -> 1e-3 (* ideal primary input *)

(* --- cache-key refcounting ---------------------------------------- *)

let incr_ref tbl key =
  Hashtbl.replace tbl key (1 + Option.value ~default:0 (Hashtbl.find_opt tbl key))

let decr_ref tbl key =
  match Hashtbl.find_opt tbl key with
  | None -> false
  | Some n when n <= 1 ->
    Hashtbl.remove tbl key;
    true
  | Some n ->
    Hashtbl.replace tbl key (n - 1);
    false

let claim_keys t (keys : solve_keys) =
  (match keys.sk_exact with
  | Some k -> incr_ref t.exact_refs k
  | None -> ());
  match keys.sk_pattern with
  | Some h -> incr_ref t.pattern_refs h
  | None -> ()

(* Called only once every net solved in a wave has claimed its new
   keys: a re-solve landing on its old key goes 1 -> 2 -> 1, and a key
   one net leaves while a later net of the same wave hits it through
   the wave's frozen view is claimed before it can reach zero.  Keys
   only exist when a cache does. *)
let retire_keys t (keys : solve_keys) =
  match t.cache with
  | None -> ()
  | Some cache -> (
    (match keys.sk_exact with
    | Some (hash, signature) ->
      if decr_ref t.exact_refs (hash, signature) then
        ignore (cache_remove_exact cache ~hash ~signature)
    | None -> ());
    match keys.sk_pattern with
    | Some hash ->
      if decr_ref t.pattern_refs hash then
        ignore (cache_remove_pattern cache ~hash)
    | None -> ())

(* --- per-net record rebuild --------------------------------------- *)

(* The record step: absolute arrivals from the (already updated)
   arrival tuple plus the (possibly memoed) relative delays.  Returns
   whether the published record changed — the only way a downstream
   arrival tuple can change, short of an edit. *)
let rebuild_net t net timings =
  let ar, af, _, _ = Hashtbl.find t.arrival net in
  let sinks =
    List.map
      (fun (inst, delay, delay_fall, sink_slew) ->
        { sink_inst = inst;
          net_delay = delay;
          net_delay_fall = delay_fall;
          sink_slew;
          arrival = ar +. delay;
          arrival_fall = af +. delay_fall })
      timings
  in
  let nt = { net_name = net; driver_arrival = ar; driver_arrival_fall = af; sinks } in
  let changed =
    match Hashtbl.find_opt t.timed net with Some old -> old <> nt | None -> true
  in
  if changed then begin
    Hashtbl.replace t.timed net nt;
    List.iter (fun st -> Hashtbl.replace t.sink_results (net, st.sink_inst) st) sinks
  end;
  changed

(* --- endpoints ----------------------------------------------------- *)

(* Rebuild the endpoint requirement table ({!Timing.endpoints}) and
   seed the backward pass with every net whose endpoint value changed,
   appeared, or disappeared. *)
let rebuild_endpoints t =
  let old = Hashtbl.copy t.endpoint_req in
  Hashtbl.reset t.endpoint_req;
  List.iter
    (fun (net, v) ->
      Hashtbl.replace t.endpoint_req net v;
      if Hashtbl.find_opt old net = Some v then Hashtbl.remove old net
      else Hashtbl.replace t.req_seed net ())
    (endpoints t.d);
  (* what is left changed value or is no endpoint any more *)
  Hashtbl.iter (fun net _ -> Hashtbl.replace t.req_seed net ()) old

(* --- slack order ---------------------------------------------------- *)

(* The report's slack order, [compare (slack, net, pin)] without the
   tuples; the key is unique per pin. *)
let slack_order a b =
  let c = Float.compare a.sp_slack b.sp_slack in
  if c <> 0 then c
  else
    let c = String.compare a.sp_net b.sp_net in
    if c <> 0 then c else Option.compare String.compare a.sp_pin b.sp_pin

let merge_slacks a b =
  let rec go acc a b =
    match (a, b) with
    | [], rest | rest, [] -> List.rev_append acc rest
    | x :: a', y :: b' ->
      if slack_order x y <= 0 then go (x :: acc) a' b else go (y :: acc) a b'
  in
  go [] a b

(* --- the pass ------------------------------------------------------ *)

(* One pass over the schedule: every net on the first pass, the
   worklists' nets after that.  A failing net raises when [strict];
   otherwise it is reported in [failures] and everything downstream of
   it stays untimed.  Returns the report (its [stats] hold the merged
   solve windows and the cache's footprint) and the pass's [work]. *)
let pass ~strict t =
  let d = t.d in
  if not t.schedule_valid then compute_waves t;
  (* a worklist: one bucket per wave, each net queued once.  The
     all-dirty pass starts with every bucket holding its whole wave, so
     nothing more can join; later passes start empty and [add] queues a
     net in its wave's bucket.  A bucket's nets only ever queue nets of
     waves still to come, so each bucket is complete when it runs. *)
  let full = t.last_report = None in
  let worklist () =
    let buckets =
      if full then Array.copy t.waves else Array.make (Array.length t.waves) []
    in
    let queued = Hashtbl.create 64 in
    let add net =
      if not (full || Hashtbl.mem queued net) then
        match Hashtbl.find_opt t.wave_of net with
        | Some w ->
          Hashtbl.replace queued net ();
          buckets.(w) <- net :: buckets.(w)
        | None -> () (* a constraint on a net outside the schedule *)
    in
    (buckets, add)
  in
  let forward, schedule = worklist () and backward, reschedule = worklist () in
  Hashtbl.iter (fun net () -> schedule net) t.touched;
  Hashtbl.reset t.touched;
  (* nets whose slack entries need a rebuild: record or requirements
     changed *)
  let slack_dirty : (string, unit) Hashtbl.t = Hashtbl.create 64 in
  let dirty = ref 0 and forward_visits = ref 0 in
  let windows = ref [] in
  (* non-strict only: the failed nets with their diagnostics (in solve
     order), and the nets left untimed downstream of them *)
  let failures = ref [] and blocked = ref [] in
  let untimed : (string, unit) Hashtbl.t = Hashtbl.create 8 in
  let upstream_untimed net =
    Hashtbl.length untimed > 0
    &&
    match net_drivers t.d net with
    | [] -> false
    | inst :: _ -> List.exists (Hashtbl.mem untimed) (find_gate t.d inst).inputs
  in
  (* a changed record moves the arrival inputs of its sink gates'
     outputs, which sit in later waves *)
  let record net timings =
    if rebuild_net t net timings then begin
      Hashtbl.replace slack_dirty net ();
      List.iter (fun inst -> schedule (find_gate d inst).output) (net_sinks d net)
    end
  in
  (* forward: wave by wave, classify each visited net (sorted) by
     pulling its arrival tuple and memo inputs, batch-solve the dirty
     ones, and rebuild the records of nets whose arrivals moved from
     the memo.  A re-solved net seeds the backward worklist. *)
  Parallel.with_pool ~jobs:t.jobs (fun pool ->
      for w = 0 to Array.length forward - 1 do
        let wave = List.sort String.compare forward.(w) in
        let solves = ref [] and arith = ref [] in
        List.iter
          (fun net ->
            incr forward_visits;
            if upstream_untimed net then begin
              Hashtbl.replace untimed net ();
              blocked := net :: !blocked
            end
            else begin
              let tuple = compute_arrival t net in
              let changed =
                match Hashtbl.find_opt t.arrival net with
                | Some old -> old <> tuple
                | None -> true
              in
              if changed then Hashtbl.replace t.arrival net tuple;
              let _, _, slew, _ = tuple in
              let dres = driver_res_of t net in
              let need =
                match Hashtbl.find_opt t.memo net with
                | None -> true
                | Some m ->
                  (not m.m_valid) || m.m_slew <> slew || m.m_driver_res <> dres
              in
              if need then solves := (net, slew, dres) :: !solves
              else if changed then arith := net :: !arith
              (* else untouched: the last result stands as-is *)
            end)
          wave;
        let solves = Array.of_list (List.rev !solves) in
        let n = Array.length solves in
        if n > 0 then begin
          (* Freeze the cache view once per wave: every task sees
             exactly the entries published by earlier waves.  The
             sorted solve list splits into contiguous chunks, one per
             pool slot, so dispatch, stats-window and shard overhead
             amortize over many solves. *)
          let view = Option.map cache_view t.cache in
          let nchunks =
            let j = Parallel.jobs pool in
            if j <= 1 then 1 else Stdlib.min n j
          in
          let bounds = Array.init (nchunks + 1) (fun i -> i * n / nchunks) in
          (* per-chunk failure label, updated as the chunk advances so
             an unexpected exception is attributed to the exact net it
             escaped from *)
          let labels =
            Array.init nchunks (fun ci ->
                let net, _, _ = solves.(bounds.(ci)) in
                "net " ^ net)
          in
          let chunk_results =
            Parallel.mapi
              ~label:(fun ci -> labels.(ci))
              pool
              (fun ci () ->
                let lo = bounds.(ci) and hi = bounds.(ci + 1) in
                let shard = Option.map (fun _ -> cache_shard ()) view in
                Awe.Stats.scoped (fun () ->
                    let outcomes = Array.make (hi - lo) (Error "") in
                    for k = 0 to hi - lo - 1 do
                      let net, slew, dres = solves.(lo + k) in
                      labels.(ci) <- "net " ^ net;
                      outcomes.(k) <-
                        (match
                           solve_net d ~model:t.model ~sparse:t.sparse
                             ~reduce:t.reduce ~view ~shard ~net
                             ~driver_res:dres ~slew
                         with
                        | r -> Ok r
                        | exception Malformed msg -> Error msg)
                    done;
                    (outcomes, shard)))
              (Array.make nchunks ())
          in
          (* record in chunk order, i.e. sorted net order: stats
             windows merge commutatively, and shards absorbed in
             chunk order replay publications in exactly the order a
             sequential sweep makes them.  The old keys retire after
             the whole wave has claimed (see [retire_keys]). *)
          let stale_keys = ref [] in
          Array.iteri
            (fun ci ((outcomes, shard), window) ->
              windows := window :: !windows;
              (match (t.cache, shard) with
              | Some c, Some sh -> cache_absorb c sh
              | _ -> ());
              Array.iteri
                (fun k outcome ->
                  let net, slew, dres = solves.(bounds.(ci) + k) in
                  match outcome with
                  | Error msg ->
                    if strict then raise (Malformed msg);
                    Hashtbl.replace untimed net ();
                    failures := { failed_net = net; reason = msg } :: !failures
                  | Ok (timings, keys) ->
                    incr dirty;
                    reschedule net;
                    claim_keys t keys;
                    (match Hashtbl.find_opt t.memo net with
                    | Some m -> stale_keys := m.m_keys :: !stale_keys
                    | None -> ());
                    Hashtbl.replace t.memo net
                      { m_valid = true;
                        m_slew = slew;
                        m_driver_res = dres;
                        m_timings = timings;
                        m_keys = keys };
                    record net timings)
                outcomes)
            chunk_results;
          List.iter (retire_keys t) !stale_keys
        end;
        List.iter
          (fun net -> record net (Hashtbl.find t.memo net).m_timings)
          (List.rev !arith)
      done);
  if t.endpoints_stale then begin
    rebuild_endpoints t;
    t.endpoints_stale <- false
  end;
  (* backward: required times flow from the endpoints toward the
     inputs, in reverse wave order so each net's downstream
     requirements are final when it is visited — the min-plus dual of
     the forward max-plus pass.  The requirement binds at a net's sink
     pins, or at its driver pin when it is a sinkless leaf; through a
     sink gate it is the output requirement less the intrinsic, across
     a net the sink requirement less that sink's wire delay, min'ed
     over sinks, per transition.  After the first pass, visits are
     seeded by re-solved nets and intrinsic/endpoint seeds, and
     propagate upstream only while a net's driver requirement actually
     changed (bitwise); skipped nets hold exactly the values a full
     pass would rewrite. *)
  Hashtbl.iter (fun net () -> reschedule net) t.req_seed;
  Hashtbl.reset t.req_seed;
  let min2 (a, b) (c, e) = (Float.min a c, Float.min b e) in
  let inf2 = (infinity, infinity) in
  let backward_visits = ref 0 in
  let visit net =
    incr backward_visits;
    match Hashtbl.find_opt t.timed net with
    | None -> () (* failed / untimed: no requirements to propagate *)
    | Some nt ->
      let ep2 =
        match Hashtbl.find_opt t.endpoint_req net with
        | Some tt -> (tt, tt)
        | None -> inf2
      in
      let sink_reqs =
        List.map
          (fun st ->
            let through =
              let g = find_gate d st.sink_inst in
              match Hashtbl.find_opt t.req_driver g.output with
              | None -> inf2
              | Some (rr, rf) -> (rr -. g.cell.intrinsic, rf -. g.cell.intrinsic)
            in
            min2 ep2 through)
          nt.sinks
      in
      (match Hashtbl.find_opt t.req_sinks net with
      | Some old when old = sink_reqs -> ()
      | _ ->
        Hashtbl.replace t.req_sinks net sink_reqs;
        Hashtbl.replace slack_dirty net ());
      let dr =
        match nt.sinks with
        | [] -> ep2 (* sinkless leaf: the constraint binds the driver pin *)
        | sinks ->
          List.fold_left2
            (fun acc st (rr, rf) ->
              min2 acc (rr -. st.net_delay, rf -. st.net_delay_fall))
            inf2 sinks sink_reqs
      in
      (match Hashtbl.find_opt t.req_driver net with
      | Some old when old = dr -> ()
      | _ ->
        Hashtbl.replace t.req_driver net dr;
        Hashtbl.replace slack_dirty net ();
        (* the driver gate's inputs see a new through-requirement *)
        match net_drivers d net with
        | inst :: _ -> List.iter reschedule (find_gate d inst).inputs
        | [] -> ())
  in
  for w = Array.length backward - 1 downto 0 do
    List.iter visit backward.(w)
  done;
  (* per-pin slacks at the binding transition, per net *)
  let slack_entries net =
    match Hashtbl.find_opt t.timed net with
    | None -> []
    | Some nt ->
      let entries = ref [] in
      let emit ~pin ~transition ~arrival ~required =
        entries :=
          { sp_net = net;
            sp_pin = pin;
            sp_transition = transition;
            sp_arrival = arrival;
            sp_required = required;
            sp_slack = required -. arrival }
          :: !entries
      in
      let binding ~pin ~ar ~af (rr, rf) =
        (* the binding transition is the one with less slack; ties go
           to rise.  Skip unconstrained pins (both infinite). *)
        let sr = rr -. ar and sf = rf -. af in
        if Float.is_finite sf && sf < sr then
          emit ~pin ~transition:Fall ~arrival:af ~required:rf
        else if Float.is_finite sr then
          emit ~pin ~transition:Rise ~arrival:ar ~required:rr
      in
      (match nt.sinks with
      | [] -> (
        match Hashtbl.find_opt t.req_driver net with
        | Some rq ->
          binding ~pin:None ~ar:nt.driver_arrival ~af:nt.driver_arrival_fall rq
        | None -> ())
      | sinks ->
        List.iter2
          (fun st rq ->
            binding ~pin:(Some st.sink_inst) ~ar:st.arrival ~af:st.arrival_fall rq)
          sinks (Hashtbl.find t.req_sinks net));
      !entries
  in
  (* the slack order: the rebuilt nets' entries are sorted on their own
     and merged into the previous order with those nets' old entries
     filtered out — one sort on the all-dirty pass, where every net is
     rebuilt and there is no previous order *)
  let slacks =
    if Hashtbl.length slack_dirty = 0 then t.slacks
    else
      let fresh =
        Hashtbl.fold
          (fun net () acc -> List.rev_append (slack_entries net) acc)
          slack_dirty []
        |> List.sort slack_order
      in
      merge_slacks fresh
        (List.filter (fun s -> not (Hashtbl.mem slack_dirty s.sp_net)) t.slacks)
  in
  t.slacks <- slacks;
  let worst_slack = match slacks with [] -> infinity | s :: _ -> s.sp_slack in
  (* critical arrival over primary outputs (or all nets if none are
     marked), strict [>] in candidate order *)
  let critical_arrival, critical_net =
    List.fold_left
      (fun (acc, accn) net ->
        match Hashtbl.find_opt t.timed net with
        | None -> (acc, accn)
        | Some nt ->
          let worst =
            List.fold_left
              (fun m (s : sink_timing) -> Float.max m s.arrival)
              nt.driver_arrival nt.sinks
          in
          if worst > acc then (worst, Some net) else (acc, accn))
      (neg_infinity, None) (critical_candidates d)
  in
  (* the critical path: worst-input pointers walked back to a primary
     input *)
  let rec walk path net =
    match Hashtbl.find_opt t.arrival net with
    | Some (_, _, _, Some worst) -> walk (net :: path) worst
    | _ -> net :: path
  in
  let critical_path =
    match critical_net with None -> [] | Some net -> walk [] net
  in
  let nets = List.filter_map (Hashtbl.find_opt t.timed) t.names in
  let failures =
    List.rev_append !failures
      (List.map
         (fun net ->
           { failed_net = net; reason = "not timed: an upstream net failed" })
         (List.sort compare !blocked))
  in
  let stats = List.fold_left Awe.Stats.merge Awe.Stats.zero (List.rev !windows) in
  (* the cache's footprint, merged once so merged stats report the
     final size, not a sum of samples *)
  let stats =
    match t.cache with
    | Some c ->
      Awe.Stats.merge stats
        { Awe.Stats.zero with Awe.Stats.cache_bytes = cache_bytes c }
    | None -> stats
  in
  ( { nets; critical_arrival; critical_path; slacks; worst_slack; failures; stats },
    { w_dirty = !dirty;
      w_reused = Hashtbl.length t.wave_of - !dirty - List.length failures;
      w_forward = !forward_visits;
      w_backward = !backward_visits } )

(* Build the engine over a design: the up-front reference checks, in
   declaration order, against the design's connectivity index.  Nothing
   is timed yet. *)
let engine ~model ~sparse ~jobs ~reduce ~cache (d : design) =
  let details = gate_details d in
  List.iter
    (fun (inst, _cell, inputs, output) ->
      List.iter
        (fun net ->
          if net_segments d net = None then
            fail "gate %s references unknown net %s" inst net)
        (output :: inputs))
    details;
  List.iter
    (fun (inst, _cell, _inputs, output) ->
      (* the first failing gate is a net's second driver *)
      (match net_drivers d output with
      | first :: _ when first <> inst ->
        fail "net %s is driven by both %s and %s" output first inst
      | _ -> ());
      if primary_input d output <> None then
        fail "net %s is both a primary input and the output of gate %s" output
          inst)
    details;
  { d;
    model;
    sparse;
    reduce;
    jobs;
    cache;
    names = net_names d;
    waves = [||];
    wave_of = Hashtbl.create 256;
    schedule_valid = false;
    memo = Hashtbl.create 256;
    arrival = Hashtbl.create 256;
    timed = Hashtbl.create 256;
    sink_results = Hashtbl.create 256;
    req_driver = Hashtbl.create 256;
    req_sinks = Hashtbl.create 256;
    endpoint_req = Hashtbl.create 8;
    endpoints_stale = true;
    slacks = [];
    exact_refs = Hashtbl.create 256;
    pattern_refs = Hashtbl.create 64;
    touched = Hashtbl.create 16;
    req_seed = Hashtbl.create 16;
    undo = [];
    undo_saved = [];
    rollback = [];
    pending = 0;
    last_report = None;
    totals =
      { total_edits = 0;
        total_retimes = 0;
        total_dirty = 0;
        total_reused = 0;
        total_fallbacks = 0;
        total_forward_visits = 0;
        total_backward_visits = 0 } }

let analyze ?(model = Awe_auto) ?(sparse = false) ?(jobs = 1) ?(strict = true)
    ?(reduce = true) ?cache d =
  fst (pass ~strict (engine ~model ~sparse ~jobs ~reduce ~cache d))

(* --- edits --------------------------------------------------------- *)

(* a net whose own content changed: re-solve it next pass *)
let invalidate t net =
  (match Hashtbl.find_opt t.memo net with
  | Some m -> m.m_valid <- false
  | None -> ());
  Hashtbl.replace t.touched net ()

(* Validate-then-mutate; returns the inverse edit.  Raises [Malformed]
   without touching anything on a rejected edit: all validation reads
   come first, the [Timing] mutators themselves validate before
   mutating, and the session-table updates after them cannot fail. *)
let rec apply_edit t edit =
  match edit with
  | Set_resistance { net; index; value } ->
    let segs = segments_of t net in
    if index < 0 || index >= List.length segs then
      fail "net %s has no segment %d" net index;
    let old = (List.nth segs index).res in
    let segments =
      List.mapi (fun i s -> if i = index then { s with res = value } else s) segs
    in
    replace_net_segments t.d ~net ~segments;
    invalidate t net;
    Set_resistance { net; index; value = old }
  | Set_capacitance { net; index; value } ->
    let segs = segments_of t net in
    if index < 0 || index >= List.length segs then
      fail "net %s has no segment %d" net index;
    let old = (List.nth segs index).cap in
    let segments =
      List.mapi (fun i s -> if i = index then { s with cap = value } else s) segs
    in
    replace_net_segments t.d ~net ~segments;
    invalidate t net;
    Set_capacitance { net; index; value = old }
  | Reroute { net; index; seg_from; seg_to } ->
    let segs = segments_of t net in
    if index < 0 || index >= List.length segs then
      fail "net %s has no segment %d" net index;
    let old = List.nth segs index in
    let segments =
      List.mapi
        (fun i s -> if i = index then { s with seg_from; seg_to } else s)
        segs
    in
    List.iter
      (fun inst ->
        if not (List.exists (fun s -> s.seg_to = inst) segments) then
          fail "reroute would detach sink %s from net %s" inst net)
      (net_sinks t.d net);
    replace_net_segments t.d ~net ~segments;
    invalidate t net;
    Reroute { net; index; seg_from = old.seg_from; seg_to = old.seg_to }
  | Swap_sink { inst; from_net; to_net } ->
    let old = (find_gate t.d inst).inputs in
    if not (List.mem from_net old) then
      fail "gate %s has no input pin on net %s" inst from_net;
    let inputs = replace_first old from_net to_net in
    apply_edit t (Set_inputs { inst; inputs })
  | Set_inputs { inst; inputs } ->
    let g = find_gate t.d inst in
    let old = g.inputs in
    if inputs = [] then fail "gate %s has no inputs" inst;
    List.iter
      (fun net ->
        match net_segments t.d net with
        | None -> fail "gate %s references unknown net %s" inst net
        | Some segs ->
          if not (List.exists (fun s -> s.seg_to = inst) segs) then
            fail "net %s has no segment reaching sink %s" net inst)
      inputs;
    set_gate_inputs t.d ~inst ~inputs;
    (* the output's arrival inputs changed; a net whose pin count on the
       gate changed gets a new stage circuit (its sink set or its load) *)
    let g' = find_gate t.d inst in
    Hashtbl.replace t.touched g'.output ();
    List.iter
      (fun n -> if pin_count g n <> pin_count g' n then invalidate t n)
      (distinct (old @ inputs));
    if distinct old <> distinct inputs then t.schedule_valid <- false;
    Set_inputs { inst; inputs = old }
  | Set_drive { inst; value } ->
    let g = find_gate t.d inst in
    if not (Float.is_finite value && value > 0.) then
      fail "gate %s: drive resistance must be positive" inst;
    set_gate_cell t.d ~inst ~cell:{ g.cell with drive_res = value };
    invalidate t g.output;
    Set_drive { inst; value = g.cell.drive_res }
  | Set_pin_cap { inst; value } ->
    let g = find_gate t.d inst in
    if not (Float.is_finite value && value >= 0.) then
      fail "gate %s: input pin capacitance must be non-negative" inst;
    set_gate_cell t.d ~inst ~cell:{ g.cell with input_cap = value };
    List.iter (invalidate t) (distinct g.inputs);
    Set_pin_cap { inst; value = g.cell.input_cap }
  | Set_intrinsic { inst; value } ->
    let g = find_gate t.d inst in
    if not (Float.is_finite value && value >= 0.) then
      fail "gate %s: intrinsic delay must be non-negative" inst;
    set_gate_cell t.d ~inst ~cell:{ g.cell with intrinsic = value };
    (* no re-solve: the intrinsic enters the output's arrival and the
       backward through-requirement at the gate's input nets, which
       must be re-visited *)
    Hashtbl.replace t.touched g.output ();
    List.iter (fun n -> Hashtbl.replace t.req_seed n ()) (distinct g.inputs);
    Set_intrinsic { inst; value = g.cell.intrinsic }
  | Set_constraint { net; required } ->
    let old = List.assoc_opt net (constraints t.d) in
    set_required t.d ~net ~required:(Some required);
    t.endpoints_stale <- true;
    (match old with
    | Some v -> Set_constraint { net; required = v }
    | None -> Remove_constraint { net })
  | Remove_constraint { net } -> (
    match List.assoc_opt net (constraints t.d) with
    | None -> fail "no constraint on net %s" net
    | Some v ->
      set_required t.d ~net ~required:None;
      t.endpoints_stale <- true;
      Set_constraint { net; required = v })
  | Set_clock { period } ->
    let old = clock_period t.d in
    update_clock t.d ~period:(Some period);
    t.endpoints_stale <- true;
    (match old with Some p -> Set_clock { period = p } | None -> Remove_clock)
  | Remove_clock -> (
    match clock_period t.d with
    | None -> fail "no clock to remove"
    | Some p ->
      update_clock t.d ~period:None;
      t.endpoints_stale <- true;
      Set_clock { period = p })

(* --- session lifecycle -------------------------------------------- *)

(* A session re-time: one pass, plus the ECO counters — recorded only
   here, so a cold [analyze] reports none. *)
let retime_now t =
  let report, { w_dirty = dirty; w_reused = reused; w_forward; w_backward } =
    pass ~strict:true t
  in
  (* the window lands in the report and folds back into the ambient
     counters *)
  let (), eco =
    Awe.Stats.scoped (fun () ->
        Awe.Stats.record_eco ~edits:t.pending ~dirty_nets:dirty
          ~reused_nets:reused ~full_fallbacks:0)
  in
  let tt = t.totals in
  t.totals <-
    { tt with
      total_retimes = tt.total_retimes + 1;
      total_dirty = tt.total_dirty + dirty;
      total_reused = tt.total_reused + reused;
      total_forward_visits = tt.total_forward_visits + w_forward;
      total_backward_visits = tt.total_backward_visits + w_backward };
  let report = { report with stats = Awe.Stats.merge report.stats eco } in
  t.last_report <- Some report;
  report

let reset_analysis t =
  Hashtbl.reset t.memo;
  Hashtbl.reset t.arrival;
  Hashtbl.reset t.timed;
  Hashtbl.reset t.sink_results;
  Hashtbl.reset t.req_driver;
  Hashtbl.reset t.req_sinks;
  Hashtbl.reset t.endpoint_req;
  t.slacks <- [];
  Hashtbl.reset t.exact_refs;
  Hashtbl.reset t.pattern_refs;
  Hashtbl.reset t.touched;
  Hashtbl.reset t.req_seed;
  t.cache <- Some (create_cache ());
  t.schedule_valid <- false;
  t.endpoints_stale <- true;
  t.last_report <- None

let commit t =
  t.pending <- 0;
  t.rollback <- [];
  t.undo_saved <- t.undo

(* Roll the design back to the last successfully-timed state and
   rebuild the analysis cold.  The replayed inverses restore a state
   that timed successfully before, so the recovery re-time succeeds
   barring a broken invariant (in which case its exception escapes). *)
let fallback t msg =
  t.totals <- { t.totals with total_fallbacks = t.totals.total_fallbacks + 1 };
  Awe.Stats.record_eco ~edits:0 ~dirty_nets:0 ~reused_nets:0 ~full_fallbacks:1;
  List.iter (fun e -> ignore (apply_edit t e)) t.rollback;
  t.undo <- t.undo_saved;
  reset_analysis t;
  ignore (retime_now t);
  commit t;
  Error msg

let retime t =
  if t.pending = 0 then Ok (Option.get t.last_report)
  else
    match retime_now t with
    | report ->
      commit t;
      Ok report
    | exception Malformed msg -> fallback t msg
    | exception Not_a_dag insts ->
      fallback t
        (Printf.sprintf "combinational cycle through %s"
           (String.concat ", " insts))
    | exception Parallel.Task_failure { label; exn; _ } ->
      fallback t (Printf.sprintf "%s: %s" label (Printexc.to_string exn))

let apply t edit =
  match apply_edit t edit with
  | inverse ->
    t.undo <- (edit, inverse) :: t.undo;
    t.rollback <- inverse :: t.rollback;
    t.pending <- t.pending + 1;
    t.totals <- { t.totals with total_edits = t.totals.total_edits + 1 };
    Ok ()
  | exception Malformed msg -> Error msg

let revert t =
  match t.undo with
  | [] -> Error "nothing to revert"
  | (edit, inverse) :: rest -> (
    match apply_edit t inverse with
    | _reinverse ->
      t.undo <- rest;
      t.rollback <- edit :: t.rollback;
      t.pending <- t.pending + 1;
      t.totals <- { t.totals with total_edits = t.totals.total_edits + 1 };
      Ok edit
    | exception Malformed msg -> Error ("revert failed: " ^ msg))

let revert_all t =
  let rec go n = match revert t with Ok _ -> go (n + 1) | Error _ -> n in
  go 0

let create ?(model = Awe_auto) ?(sparse = false) ?(jobs = 1) ?(reduce = true)
    (d : design) =
  if jobs < 0 then
    invalid_arg "Sta.Session.create: jobs must be non-negative";
  let t = engine ~model ~sparse ~jobs ~reduce ~cache:(Some (create_cache ())) d in
  ignore (retime_now t);
  commit t;
  t

let design t = t.d

let report t = Option.get t.last_report

let pending_edits t = t.pending

let cache t = Option.get t.cache

let totals t = t.totals
