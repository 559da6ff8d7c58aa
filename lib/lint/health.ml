(* AWE-W2xx numerical health: predict, from structure alone, where the
   numerics of the paper's moment pipeline will hurt.

   None of these checks assemble or factor anything.  The node time
   constant is bounded structurally as tau_i ~ (sum C at i) / (sum 1/R
   at i) — the diagonal Elmore bound — and for a .sta net as
   (driver resistance + min-plus wire resistance from the drv pin) *
   (local capacitance), which is the classic Elmore path bound.  Three
   families:

   - W201: the structural version of the post-assembly eq. 47
     conditioning warning (W003): when the bound already spreads past
     [Lint.spread_limit] decades, no single frequency scale can keep
     the moment matrix well-conditioned.  On every shipped deck W201
     agrees with W003 — the bound is loose in absolute value but tight
     in decades (a regression test pins the agreement).
   - W202: an LC tank whose min-plus damping path from the nearest
     zero-impedance reference (ground / an ideal V source) carries
     almost no series resistance has quality factor Q ~ sqrt(L/C)/R;
     past [q_limit] the dominant poles sit close to the imaginary axis
     and low-order fits are prone to unstable (RHP) pole estimates —
     the failure mode the paper's Section 5 stabilization discusses.
   - W203: the adaptive order estimator needs roughly one matched pole
     per distinct time-constant cluster; when structural taus occupy
     [escalation_limit]+ distinct decades, predict order escalation
     (the per-net moment budget grows with 2q). *)

module D = Diagnostic

let q_limit = 5.
(* fig25 / coupled_lines — intentionally ringing shipped decks — sit
   near Q ~ 2; a tank only trips this with essentially no damping *)

let escalation_limit = 6
(* distinct decades of structural tau before we predict escalation;
   shipped decks cluster within <= 5 decades *)

(* --- shared helpers ------------------------------------------------ *)

(* min/max tau with a representative node each, as check_mna tracks *)
let extremes taus =
  let ext = ref None in
  List.iter
    (fun (node, tau) ->
      ext :=
        Some
          (match !ext with
          | None -> ((tau, node), (tau, node))
          | Some ((tmin, nmin), (tmax, nmax)) ->
            ( (if tau < tmin then (tau, node) else (tmin, nmin)),
              if tau > tmax then (tau, node) else (tmax, nmax) )))
    taus;
  !ext

let decade_buckets taus =
  let seen = Hashtbl.create 16 in
  List.iter
    (fun (_, tau) ->
      if tau > 0. && Float.is_finite tau then
        Hashtbl.replace seen (int_of_float (Float.floor (Float.log10 tau))) ())
    taus;
  Hashtbl.length seen

(* --- circuit-level passes ------------------------------------------ *)

let circuit_taus (c : Circuit.Netlist.circuit) =
  let g = Circuit.Flowgraph.node_conductance c
  and cap = Circuit.Flowgraph.node_capacitance c in
  let acc = ref [] in
  for n = c.Circuit.Netlist.node_count - 1 downto 1 do
    Dataflow.tick ();
    if g.(n) > 0. && cap.(n) > 0. then acc := (n, cap.(n) /. g.(n)) :: !acc
  done;
  !acc

let check_spread ~emit ~spread_limit (c : Circuit.Netlist.circuit) taus =
  let nname n = c.Circuit.Netlist.node_names.(n) in
  match extremes taus with
  | Some ((tmin, nmin), (tmax, nmax))
    when nmin <> nmax && tmax > spread_limit *. tmin ->
    emit
      (D.make
         ~nodes:[ nname nmin; nname nmax ]
         ~hint:
           "rescale the extreme elements or split the analysis per time \
            scale"
         D.Structural_spread
         (Printf.sprintf
            "structural node time constants span %.1f decades (Elmore \
             bound: %.3g s at node %s, %.3g s at node %s): eq. 47 \
             frequency scaling cannot condition the moment matrix"
            (Float.log10 (tmax /. tmin))
            tmin (nname nmin) tmax (nname nmax)))
  | _ -> ()

let check_escalation ~emit (c : Circuit.Netlist.circuit) taus =
  let nname n = c.Circuit.Netlist.node_names.(n) in
  let buckets = decade_buckets taus in
  if buckets >= escalation_limit then
    match extremes taus with
    | Some ((tmin, nmin), (tmax, nmax)) ->
      emit
        (D.make
           ~nodes:[ nname nmin; nname nmax ]
           ~hint:
             "expect order escalation; consider splitting the deck per \
              time scale or reducing the slow subtree first"
           D.Order_hotspot
           (Printf.sprintf
              "structural time constants occupy %d distinct decades \
               (%.3g s at node %s to %.3g s at node %s): the adaptive \
               fit will escalate toward q ~ %d to resolve every cluster"
              buckets tmin (nname nmin) tmax (nname nmax) buckets))
    | None -> ()

let check_underdamped ~emit ~line (c : Circuit.Netlist.circuit) =
  let nodes = c.Circuit.Netlist.node_count in
  let nname n = c.Circuit.Netlist.node_names.(n) in
  let redges = Circuit.Flowgraph.resistor_edges c in
  let zedges = Circuit.Flowgraph.low_impedance_pairs c in
  let pairs =
    List.map (fun (a, b, _) -> (a, b)) redges @ zedges
  in
  let g = Dataflow.undirected ~nodes pairs in
  (* min-plus series resistance from the nearest zero-impedance
     reference; resistor edges carry their ohms, source/inductor edges
     carry zero.  Weights live in a side table keyed by endpoints —
     parallel resistors take the smaller. *)
  let w = Hashtbl.create 16 in
  let key a b = (min a b, max a b) in
  List.iter
    (fun (a, b, r) ->
      let k = key a b in
      match Hashtbl.find_opt w k with
      | Some r' when r' <= r -> ()
      | _ -> Hashtbl.replace w k r)
    redges;
  List.iter (fun (a, b) -> Hashtbl.replace w (key a b) 0.) zedges;
  let seeds = Array.make nodes false in
  List.iter (fun n -> seeds.(n) <- true) (Circuit.Flowgraph.source_nodes c);
  let module M = Dataflow.Make (Dataflow.Min_float) in
  let dist =
    M.solve g
      ~init:(fun n -> if seeds.(n) then 0. else infinity)
      ~edge:(fun ~from ~into v ->
        v +. (try Hashtbl.find w (key from into) with Not_found -> 0.))
  in
  let cap = Circuit.Flowgraph.node_capacitance c in
  Array.iteri
    (fun idx e ->
      Dataflow.tick ();
      match e with
      | Circuit.Element.Inductor { name; l; np; nn; _ } when np <> nn ->
        let c_local = Float.max cap.(np) cap.(nn) in
        let r_damp = Float.min dist.(np) dist.(nn) in
        if c_local > 0. && Float.is_finite r_damp && l > 0. then begin
          let char_z = sqrt (l /. c_local) in
          let q = if r_damp <= 0. then infinity else char_z /. r_damp in
          if q > q_limit then
            emit
              (D.make ?line:(line idx) ~element:name
                 ~nodes:[ nname np; nname nn ]
                 ~hint:
                   "add series damping resistance, or expect the solver \
                    to escalate order / shift the expansion point"
                 D.Underdamped_net
                 (Printf.sprintf
                    "LC tank at inductor %s sees only %.3g ohm of series \
                     damping (Q ~ %s): dominant poles hug the imaginary \
                     axis and low-order AWE fits risk unstable pole \
                     estimates"
                    name r_damp
                    (if Float.is_finite q then Printf.sprintf "%.3g" q
                     else "infinite")))
        end
      | _ -> ())
    c.Circuit.Netlist.elements

let check_circuit (c : Circuit.Netlist.circuit) ~spread_limit =
  let acc = ref [] in
  let emit d = acc := d :: !acc in
  let line idx = Circuit.Netlist.element_line c idx in
  let taus = circuit_taus c in
  check_spread ~emit ~spread_limit c taus;
  check_underdamped ~emit ~line c;
  check_escalation ~emit c taus;
  List.rev !acc

(* --- design-level passes (.sta) ------------------------------------ *)

(* Per net: Elmore path bound tau(node) = (R_drive + min-plus wire
   resistance drv->node) * (grounded wire cap at node + attached sink
   pin caps).  The same W201/W203 verdicts as the circuit side, scoped
   to one net so the offender is named. *)

let pi_drive_res = 1e-3
(* an ideal primary input drives through (almost) zero ohms, matching
   the analysis engine's ideal-drive convention *)

let check_design (d : Sta.design) ~spread_limit =
  let acc = ref [] in
  let emit x = acc := x :: !acc in
  let module M = Dataflow.Make (Dataflow.Min_float) in
  List.iter
    (fun net ->
      Dataflow.tick ();
      match Sta.net_segments d net with
      | None -> ()
      | Some segs ->
        (* the first-declared driver; several are E107's business *)
        let r_drive =
          match Sta.net_drivers d net with
          | inst :: _ -> Some (Sta.find_gate d inst).Sta.cell.Sta.drive_res
          | [] ->
            if Sta.primary_input d net <> None then Some pi_drive_res else None
        in
        (match r_drive with
        | None -> () (* undriven: E102's business *)
        | Some r0 ->
          let ids = Hashtbl.create 16 in
          let names = ref [] in
          let intern name =
            match Hashtbl.find_opt ids name with
            | Some i -> i
            | None ->
              let i = Hashtbl.length ids in
              Hashtbl.replace ids name i;
              names := name :: !names;
              i
          in
          let drv = intern "drv" in
          let edges =
            List.map
              (fun s ->
                (intern s.Sta.seg_from, intern s.Sta.seg_to, s.Sta.res))
              segs
          in
          let node_names =
            Array.of_list (List.rev !names)
          in
          let n = Hashtbl.length ids in
          let g =
            Dataflow.undirected ~nodes:n
              (List.map (fun (a, b, _) -> (a, b)) edges)
          in
          let w = Hashtbl.create 16 in
          let key a b = (min a b, max a b) in
          List.iter
            (fun (a, b, r) ->
              let k = key a b in
              match Hashtbl.find_opt w k with
              | Some r' when r' <= r -> ()
              | _ -> Hashtbl.replace w k r)
            edges;
          let dist =
            M.solve g
              ~init:(fun i -> if i = drv then r0 else infinity)
              ~edge:(fun ~from ~into v ->
                v
                +.
                try Hashtbl.find w (key from into) with Not_found -> 0.)
          in
          let cap = Array.make n 0. in
          List.iter
            (fun s ->
              let i = Hashtbl.find ids s.Sta.seg_to in
              cap.(i) <- cap.(i) +. s.Sta.cap)
            segs;
          (* each sink pin on the net adds its input capacitance at the
             node named after its instance, as in the solved stage *)
          List.iter
            (fun inst ->
              Dataflow.tick ();
              let g = Sta.find_gate d inst in
              let c =
                float_of_int (Sta.pin_count g net) *. g.Sta.cell.Sta.input_cap
              in
              match Hashtbl.find_opt ids inst with
              | Some i -> cap.(i) <- cap.(i) +. c
              | None -> ())
            (Sta.net_sinks d net);
          let taus = ref [] in
          for i = n - 1 downto 0 do
            if cap.(i) > 0. && Float.is_finite dist.(i) then
              taus := (i, dist.(i) *. cap.(i)) :: !taus
          done;
          let taus = !taus in
          (match extremes taus with
          | Some ((tmin, imin), (tmax, imax))
            when imin <> imax && tmax > spread_limit *. tmin ->
            emit
              (D.make ~element:net
                 ~nodes:[ node_names.(imin); node_names.(imax) ]
                 ~hint:
                   "rescale the extreme segments or split the net per \
                    time scale"
                 D.Structural_spread
                 (Printf.sprintf
                    "net %s: Elmore path bounds span %.1f decades \
                     (%.3g s at %s, %.3g s at %s): eq. 47 scaling \
                     cannot condition this net's moment matrix"
                    net
                    (Float.log10 (tmax /. tmin))
                    tmin node_names.(imin) tmax node_names.(imax)))
          | _ -> ());
          let buckets = decade_buckets taus in
          if buckets >= escalation_limit then
            match extremes taus with
            | Some ((tmin, imin), (tmax, imax)) ->
              emit
                (D.make ~element:net
                   ~nodes:[ node_names.(imin); node_names.(imax) ]
                   ~hint:
                     "expect order escalation on this net; consider \
                      splitting or reducing its slow branch"
                   D.Order_hotspot
                   (Printf.sprintf
                      "net %s: Elmore path bounds occupy %d distinct \
                       decades (%.3g s at %s to %.3g s at %s): the \
                       adaptive fit will escalate toward q ~ %d"
                      net buckets tmin node_names.(imin) tmax
                      node_names.(imax) buckets))
            | None -> ()))
    (Sta.net_names d);
  List.rev !acc
