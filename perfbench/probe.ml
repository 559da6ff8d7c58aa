(* Measurement and checking helpers shared by the workloads: sample
   statistics, the report digest, the per-net stage inputs [analyze]
   used, the per-layer replay of the solve path, and the transient
   oracle. *)

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

(* Linear interpolation between closest ranks. *)
let quantile xs q =
  match List.sort compare xs with
  | [] -> nan
  | sorted ->
    let a = Array.of_list sorted in
    let pos = q *. float_of_int (Array.length a - 1) in
    let i = int_of_float pos in
    if i + 1 >= Array.length a then a.(i)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = quantile xs 0.5

let sum = List.fold_left ( +. ) 0.

(* Words allocated so far by this (single-domain) process. *)
let allocated () =
  let s = Gc.quick_stat () in
  Gc.minor_words () +. s.Gc.major_words -. s.Gc.promoted_words

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

(* --- output checks ------------------------------------------------- *)

let violations : string list ref = ref []

let check what ok = if not ok then violations := what :: !violations

(* Everything a report promises to keep bit-identical across
   repetitions, cache on or off, and incremental vs cold — nets,
   arrivals, slews, the critical path, slacks, worst slack and
   failures — but never [stats]. *)
let digest (r : Sta.report) =
  let b = Buffer.create (1 lsl 16) in
  let f x = Printf.bprintf b "%h;" x in
  let s x = Printf.bprintf b "%s;" x in
  List.iter
    (fun (n : Sta.net_timing) ->
      s n.net_name;
      f n.driver_arrival;
      f n.driver_arrival_fall;
      List.iter
        (fun (k : Sta.sink_timing) ->
          s k.sink_inst;
          f k.net_delay;
          f k.net_delay_fall;
          f k.sink_slew;
          f k.arrival;
          f k.arrival_fall)
        n.sinks)
    (List.sort (fun (a : Sta.net_timing) b -> compare a.net_name b.net_name) r.nets);
  f r.critical_arrival;
  List.iter s r.critical_path;
  List.iter
    (fun (p : Sta.pin_slack) ->
      s p.sp_net;
      s (Option.value p.sp_pin ~default:"-");
      s (Sta.transition_string p.sp_transition);
      f p.sp_arrival;
      f p.sp_required;
      f p.sp_slack)
    r.slacks;
  f r.worst_slack;
  List.iter (fun (x : Sta.net_failure) -> s x.failed_net; s x.reason) r.failures;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* --- the stage inputs of each net ---------------------------------- *)

let drivers d =
  let t = Hashtbl.create 4096 in
  List.iter
    (fun (inst, (c : Sta.cell), inputs, out) ->
      if not (Hashtbl.mem t out) then Hashtbl.replace t out (inst, c, inputs))
    (Sta.gate_details d);
  t

(* The driver resistance and input slew [analyze] used for each net:
   the driving cell's resistance and the slew at its worst (latest
   rise arrival, first wins) input pin, or an ideal source carrying
   the input card's slew at a primary input. *)
let stage_inputs d (r : Sta.report) =
  let sinks = Hashtbl.create 8192 in
  List.iter
    (fun (n : Sta.net_timing) ->
      List.iter
        (fun (k : Sta.sink_timing) -> Hashtbl.replace sinks (n.net_name, k.sink_inst) k)
        n.sinks)
    r.nets;
  let drv = drivers d in
  fun net ->
    match Hashtbl.find_opt drv net with
    | Some (inst, c, inputs) ->
      let _, slew =
        List.fold_left
          (fun (worst, slew) inp ->
            let k : Sta.sink_timing = Hashtbl.find sinks (inp, inst) in
            if k.arrival > worst then (k.arrival, k.sink_slew) else (worst, slew))
          (neg_infinity, 0.) inputs
      in
      (c.drive_res, slew)
    | None -> (1e-3, match Sta.primary_input d net with Some (_, s) -> s | None -> 0.)

(* Declared nets in [analyze]'s wave order: by topological level, then
   by name within a level. *)
let wave_order d =
  let drv = drivers d in
  let level = Hashtbl.create 4096 in
  let rec lv net =
    match Hashtbl.find_opt level net with
    | Some l -> l
    | None ->
      let l =
        match Hashtbl.find_opt drv net with
        | None -> 0
        | Some (_, _, inputs) -> 1 + List.fold_left (fun m i -> max m (lv i)) 0 inputs
      in
      Hashtbl.replace level net l;
      l
  in
  Sta.net_names d
  |> List.map (fun n -> (lv n, n))
  |> List.sort compare |> List.map snd

(* --- the per-layer replay ------------------------------------------ *)

type replay = {
  nets : int;  (** nets with at least one sink *)
  computed : int;  (** nets the structure cache would not serve *)
  sinks : int;  (** sinks of the computed nets *)
  stage_nodes : int;  (** non-ground nodes of the unreduced stage circuits *)
  eliminated : int;  (** nodes [Circuit.Reduce] removed *)
  mismatches : int;  (** sinks whose replayed delays differ from the report's *)
}

(* Re-time every net in wave order through the public calls of each
   layer, exactly as [analyze]'s solve path makes them — stage build,
   reduction, canonical hashing, then on the first occurrence of an
   exact-tier key the MNA build, the factorization, the adaptive fit
   per sink and the threshold and 10/90 crossings — with a span around
   each call.  At one job the cache computes each key once (earlier
   waves through the frozen view, wave-mates through the shard), which
   the replay's own key table reproduces.  The replayed delays are
   compared with the report's bit for bit. *)
let replay_layers d (r : Sta.report) =
  let inputs = stage_inputs d r in
  let reported = Hashtbl.create 8192 in
  List.iter
    (fun (n : Sta.net_timing) ->
      List.iter
        (fun (k : Sta.sink_timing) ->
          Hashtbl.replace reported (n.net_name, k.sink_inst) (k.net_delay, k.sink_slew))
        n.sinks)
    r.nets;
  let seen = Hashtbl.create 8192 in
  let acc = ref { nets = 0; computed = 0; sinks = 0; stage_nodes = 0; eliminated = 0; mismatches = 0 } in
  let th = Decks.threshold *. Decks.vdd in
  List.iter
    (fun net ->
      let driver_res, slew = inputs net in
      let circuit, sink_nodes =
        Trace.span "timing.stage" (fun () -> Sta.net_circuit d ~net ~driver_res ~slew)
      in
      if sink_nodes <> [] then begin
        let unreduced_nodes = circuit.Circuit.Netlist.node_count - 1 in
        let red =
          Trace.span "reduce" (fun () ->
              Circuit.Reduce.reduce ~ports:(List.map snd sink_nodes) circuit)
        in
        let circuit = red.Circuit.Reduce.circuit in
        let sink_nodes =
          List.map (fun (i, n) -> (i, red.Circuit.Reduce.node_map.(n))) sink_nodes
        in
        let h = Trace.span "canon" (fun () -> Circuit.Canon.hashes circuit) in
        let key =
          (h.Circuit.Canon.exact, h.Circuit.Canon.signature, Int64.bits_of_float slew,
           List.map snd sink_nodes)
        in
        let fresh = not (Hashtbl.mem seen key) in
        if fresh then begin
          Hashtbl.replace seen key ();
          let sys = Trace.span "mna" (fun () -> Circuit.Mna.build circuit) in
          let engine =
            Trace.span "awe.factor" (fun () ->
                Awe.Engine.create ~options:Awe.default_options sys)
          in
          List.iter
            (fun (inst, node) ->
              let a = Trace.span "awe.fit" (fun () -> fst (Awe.Engine.auto engine ~node)) in
              let delay, sink_slew =
                Trace.span "awe.crossing" (fun () ->
                    let tau = Float.max (Awe.Engine.elmore engine ~node) 1e-15 in
                    let t_max = (50. *. tau) +. (2. *. slew) in
                    let delay = Awe.delay a ~threshold:th ~t_max in
                    let _fall = Awe.delay a ~threshold:((1. -. Decks.threshold) *. Decks.vdd) ~t_max in
                    let cross v = Awe.Approx.crossing_time a.Awe.response ~threshold:(v *. Decks.vdd) ~t_max in
                    let sink_slew =
                      match (cross 0.1, cross 0.9) with
                      | Some a, Some b when b > a -> b -. a
                      | _ -> tau *. log 9.
                    in
                    (delay, sink_slew))
              in
              if Some (Option.value delay ~default:nan, sink_slew) <> Hashtbl.find_opt reported (net, inst)
              then acc := { !acc with mismatches = !acc.mismatches + 1 })
            sink_nodes
        end;
        let rep = red.Circuit.Reduce.report in
        acc :=
          { !acc with
            nets = !acc.nets + 1;
            computed = (!acc.computed + if fresh then 1 else 0);
            sinks = (!acc.sinks + if fresh then List.length sink_nodes else 0);
            stage_nodes = !acc.stage_nodes + unreduced_nodes;
            eliminated = !acc.eliminated + rep.Circuit.Reduce.nodes_eliminated }
      end)
    (wave_order d);
  !acc


(* --- the transient oracle ------------------------------------------ *)

(* Threshold-crossing delay of every sink of the unreduced stage
   circuit, by variable-step trapezoidal integration at the verify
   oracle's step tolerance. *)
let oracle_delays d ~net ~driver_res ~slew =
  let circuit, sink_nodes = Sta.net_circuit d ~net ~driver_res ~slew in
  let sys = Circuit.Mna.build circuit in
  let tau =
    List.fold_left
      (fun m (_, node) -> Float.max m (Awe.elmore_equivalent sys ~node))
      1e-15 sink_nodes
  in
  let t_stop = (5. *. tau) +. (2. *. slew) in
  let sim =
    Transim.Transient.simulate_adaptive ~tol:Verify.Oracle.default_tol.sim_tol
      ~dt_max:(t_stop /. 100.) sys ~t_stop
  in
  List.map
    (fun (inst, node) ->
      ( inst,
        Waveform.crossing_time
          (Transim.Transient.node_waveform sim node)
          (Decks.threshold *. Decks.vdd) ))
    sink_nodes

let solve d ~reduce ~net ~driver_res ~slew =
  fst
    (Sta.solve_net d ~model:Sta.Awe_auto ~sparse:false ~reduce ~view:None ~shard:None
       ~net ~driver_res ~slew)

type accuracy = {
  sampled : int;  (** sinks compared *)
  err_max : float;  (** max |engine - oracle| / oracle *)
  drift_max : float;  (** max |reduced - unreduced| / unreduced *)
  misses : int;  (** sinks without a finite delay on either side, or beyond tolerance *)
}

(* Compare [Sta.solve_net] (reduction included) with the oracle on the
   first [k] nets of a seeded shuffle, at the driver resistance and
   input slew the report used.  Nets whose unreduced stage circuit and
   slew repeat an earlier one's (same canonical hash and signature)
   would give bit-identical answers on both sides, so each distinct
   stage is simulated once. *)
let accuracy d (r : Sta.report) ~seed ~k =
  let inputs = stage_inputs d r in
  let candidates =
    Array.of_list
      (List.filter_map
         (fun (n : Sta.net_timing) -> if n.sinks = [] then None else Some n.net_name)
         r.nets
      |> List.sort compare)
  in
  let st = Decks.rng ~seed "oracle" in
  let n = Array.length candidates in
  for i = n - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = candidates.(i) in
    candidates.(i) <- candidates.(j);
    candidates.(j) <- t
  done;
  let tol = Verify.Oracle.default_tol.rel_l2 in
  let seen = Hashtbl.create 4096 in
  let acc = ref { sampled = 0; err_max = 0.; drift_max = 0.; misses = 0 } in
  Array.iter
    (fun net ->
      let driver_res, slew = inputs net in
      let circuit, sink_nodes = Sta.net_circuit d ~net ~driver_res ~slew in
      let h = Circuit.Canon.hashes circuit in
      let key = (h.Circuit.Canon.exact, h.Circuit.Canon.signature, List.map snd sink_nodes) in
      if not (Hashtbl.mem seen key) then begin
        Hashtbl.replace seen key ();
        let engine = solve d ~reduce:true ~net ~driver_res ~slew in
        let unreduced = solve d ~reduce:false ~net ~driver_res ~slew in
        let oracle = oracle_delays d ~net ~driver_res ~slew in
        List.iter2
          (fun (inst, e, _, _) (_, u, _, _) ->
            let a = !acc in
            match List.assoc_opt inst oracle with
            | Some (Some o) when Float.is_finite e && Float.is_finite o && o > 0. ->
              let err = Float.abs (e -. o) /. o in
              acc :=
                { sampled = a.sampled + 1;
                  err_max = Float.max a.err_max err;
                  drift_max = Float.max a.drift_max (Float.abs (e -. u) /. u);
                  misses = (a.misses + if err > tol then 1 else 0) }
            | _ -> acc := { a with sampled = a.sampled + 1; misses = a.misses + 1 })
          engine unreduced
      end)
    (Array.sub candidates 0 (min k n));
  !acc
