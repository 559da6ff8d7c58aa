(* AWE-W13x constraint coverage: backward dataflow over the net-level
   timing DAG (Sta.Dag — built from the design's connectivity index,
   the same graph the analysis engine schedules its Kahn waves on).

   Endpoints are the nets carrying a required time ([Sta.endpoints],
   the engine's own rule): explicit constraint cards, plus the clock
   default on unconstrained primary outputs.  Three passes:

   - W131: with no clock card, a primary output without an explicit
     constraint has no required time at all — its whole input cone
     reports no slack.
   - W132: stage delays are non-negative, so an explicit constraint
     with a tighter (or equal) requirement strictly downstream can
     never be the binding endpoint: any arrival meeting the
     downstream card meets this one with margin to spare.  Backward
     min-propagation of (requirement, endpoint) pairs; clock defaults
     count as dominators but are never themselves flagged (a default
     is not a card the designer wrote).
   - W133: a net from which no endpoint is reachable gets no required
     time from the backward pass — a coverage hole, reported once as
     a sorted net list (like the cycle check).  Skipped entirely when
     the design has no endpoints: then W131 is the actionable
     finding, not a per-net flood. *)

module D = Diagnostic

(* backward-min lattice over (requirement, endpoint index); the index
   breaks ties deterministically and names the dominating endpoint *)
module Min_req = struct
  type t = (float * int) option

  let bottom = None

  let join a b =
    match (a, b) with
    | None, x | x, None -> x
    | Some (va, ia), Some (vb, ib) ->
      if va < vb || (va = vb && ia <= ib) then a else b

  let equal (a : t) b = a = b
end

let check_design (dag : Sta.Dag.t) (d : Sta.design) =
  let acc = ref [] in
  let emit x = acc := x :: !acc in
  let n = Array.length dag.Sta.Dag.nets in
  let g =
    { Dataflow.nodes = n;
      succs = dag.Sta.Dag.succs;
      preds = dag.Sta.Dag.preds }
  in
  let cons = Sta.constraints d in
  let con_tbl = Hashtbl.create 8 in
  List.iter (fun (net, t) -> Hashtbl.replace con_tbl net t) cons;
  let clock = Sta.clock_period d in
  let pos = Sta.primary_output_nets d in
  let endpoint = Array.make n None in
  List.iter
    (fun (net, t) ->
      match Sta.Dag.index dag net with
      | Some i -> endpoint.(i) <- Some t
      | None -> ())
    (Sta.endpoints d);
  (* W131 — only meaningful without a clock default *)
  if clock = None then
    List.iter
      (fun po ->
        Dataflow.tick ();
        if not (Hashtbl.mem con_tbl po) then
          emit
            (D.make ~nodes:[ po ]
               ~hint:
                 "add a `constraint` card for it, or a design-wide \
                  `clock` card"
               D.Unconstrained_endpoint
               (Printf.sprintf
                  "primary output %s has no required time (no \
                   constraint card and no clock): no slack is reported \
                   for its input cone"
                  po)))
      pos;
  let module M = Dataflow.Make (Min_req) in
  (* best.(i) = tightest requirement at i or any descendant *)
  let best =
    M.solve ~direction:Dataflow.Backward g
      ~init:(fun i ->
        match endpoint.(i) with Some t -> Some (t, i) | None -> None)
      ~edge:(fun ~from:_ ~into:_ v -> v)
  in
  (* W132 — explicit constraints dominated strictly downstream *)
  List.iter
    (fun (net, t) ->
      Dataflow.tick ();
      match Sta.Dag.index dag net with
      | None -> ()
      | Some i ->
        let down =
          Array.fold_left
            (fun acc j -> Min_req.join acc best.(j))
            None
            dag.Sta.Dag.succs.(i)
        in
        (match down with
        | Some (v, j) when v <= t ->
          let by = dag.Sta.Dag.nets.(j) in
          emit
            (D.make ~element:net
               ~nodes:[ net; by ]
               ?line:(Sta.constraint_line d net)
               ~hint:
                 "drop the dominated card, or tighten it below the \
                  downstream requirement"
               D.Dominated_constraint
               (Printf.sprintf
                  "constraint %s <= %.4g s is dominated: every path \
                   through it must already meet %.4g s at %s downstream, \
                   and stage delays are non-negative"
                  net t v by))
        | _ -> ()))
    cons;
  (* W133 — declared nets from which no endpoint is reachable *)
  let module B = Dataflow.Make (Dataflow.Bool_or) in
  if Array.exists (fun e -> e <> None) endpoint then begin
    let covered =
      B.solve ~direction:Dataflow.Backward g
        ~init:(fun i -> endpoint.(i) <> None)
        ~edge:(fun ~from:_ ~into:_ v -> v)
    in
    let uncovered =
      List.filter
        (fun net ->
          Dataflow.tick ();
          match Sta.Dag.index dag net with
          | Some i -> not covered.(i)
          | None -> false)
        (Sta.net_names d)
    in
    if uncovered <> [] then
      emit
        (D.make ~nodes:uncovered
           ?line:(Sta.clock_line d)
           ~hint:
             "constrain a net downstream of them, declare an output, \
              or drop the dead logic"
           D.Constraint_unreachable
           (Printf.sprintf
              "no timing endpoint is reachable from nets {%s}: their \
               slacks go unreported (constraint-coverage hole)"
              (String.concat ", " uncovered)))
  end;
  List.rev !acc
