type properties = {
  is_rc_tree : bool;
  has_floating_caps : bool;
  has_grounded_resistors : bool;
  has_resistor_loops : bool;
  has_inductors : bool;
  has_controlled_sources : bool;
  floating_groups : Element.node list list;
}

let conductive_edge e =
  match e with
  | Element.Resistor { np; nn; _ }
  | Element.Inductor { np; nn; _ }
  | Element.Vsource { np; nn; _ }
  | Element.Vcvs { np; nn; _ }
  | Element.Ccvs { np; nn; _ } -> Some (np, nn)
  | Element.Capacitor _ | Element.Isource _ | Element.Vccs _
  | Element.Cccs _ | Element.Mutual _ -> None

let conductive_graph (c : Netlist.circuit) =
  let g = Sparse.Graph.create c.node_count in
  Array.iteri
    (fun idx e ->
      match conductive_edge e with
      | Some (a, b) -> Sparse.Graph.add_edge g a b ~label:idx
      | None -> ())
    c.elements;
  g

let floating_groups c =
  let g = conductive_graph c in
  let comp = Sparse.Graph.components g in
  let ground_comp = comp.(Element.ground) in
  let groups = Hashtbl.create 4 in
  Array.iteri
    (fun node id ->
      if id <> ground_comp then begin
        let members =
          match Hashtbl.find_opt groups id with Some l -> l | None -> []
        in
        Hashtbl.replace groups id (node :: members)
      end)
    comp;
  (* only groups actually touched by some element matter; interned but
     unused nodes cannot occur after [freeze] in practice *)
  Hashtbl.fold (fun _ members acc -> List.rev members :: acc) groups []
  |> List.sort compare

let rv_graph (c : Netlist.circuit) =
  (* resistors and independent voltage sources only: the skeleton whose
     loops the RC-tree definition forbids *)
  let g = Sparse.Graph.create c.node_count in
  Array.iteri
    (fun idx e ->
      match e with
      | Element.Resistor { np; nn; _ } | Element.Vsource { np; nn; _ } ->
        Sparse.Graph.add_edge g np nn ~label:idx
      | _ -> ())
    c.elements;
  g

let analyze (c : Netlist.circuit) =
  let has_floating_caps = ref false in
  let has_grounded_resistors = ref false in
  let has_inductors = ref false in
  let has_controlled_sources = ref false in
  let only_rcv = ref true in
  let all_caps_grounded = ref true in
  Array.iter
    (fun e ->
      match e with
      | Element.Capacitor { np; nn; _ } ->
        if np <> Element.ground && nn <> Element.ground then begin
          has_floating_caps := true;
          all_caps_grounded := false
        end
      | Element.Resistor { np; nn; _ } ->
        if np = Element.ground || nn = Element.ground then
          has_grounded_resistors := true
      | Element.Inductor _ ->
        has_inductors := true;
        only_rcv := false
      | Element.Vcvs _ | Element.Vccs _ | Element.Ccvs _ | Element.Cccs _ ->
        has_controlled_sources := true;
        only_rcv := false
      | Element.Isource _ -> only_rcv := false
      | Element.Mutual _ ->
        has_inductors := true;
        only_rcv := false
      | Element.Vsource _ -> ())
    c.elements;
  let has_resistor_loops = Sparse.Graph.has_cycle (rv_graph c) in
  let floating_groups = floating_groups c in
  let is_rc_tree =
    !only_rcv && !all_caps_grounded
    && (not !has_grounded_resistors)
    && (not has_resistor_loops)
    && floating_groups = []
  in
  { is_rc_tree;
    has_floating_caps = !has_floating_caps;
    has_grounded_resistors = !has_grounded_resistors;
    has_resistor_loops;
    has_inductors = !has_inductors;
    has_controlled_sources = !has_controlled_sources;
    floating_groups }

let spanning_tree c =
  Sparse.Graph.spanning_forest ~roots:[ Element.ground ] (conductive_graph c)

let rc_tree_parent c =
  let props = analyze c in
  if not props.is_rc_tree then
    invalid_arg "Topology.rc_tree_parent: circuit is not an RC tree";
  let forest = spanning_tree c in
  Array.map
    (fun edge ->
      match edge with
      | None -> None
      | Some { Sparse.Graph.parent; label; _ } -> (
        match c.Netlist.elements.(label) with
        | Element.Resistor { r; _ } -> Some (parent, r)
        | Element.Vsource _ -> Some (parent, 0.)
        | _ -> None))
    forest
