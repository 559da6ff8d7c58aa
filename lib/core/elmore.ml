let delays ckt =
  let parents = Circuit.Topology.rc_tree_parent ckt in
  let n = ckt.Circuit.Netlist.node_count in
  (* total grounded capacitance at each node *)
  let cap = Array.make n 0. in
  Array.iter
    (fun e ->
      match e with
      | Circuit.Element.Capacitor { np; nn; c; _ } ->
        if nn = Circuit.Element.ground then cap.(np) <- cap.(np) +. c
        else cap.(nn) <- cap.(nn) +. c
      | _ -> ())
    ckt.Circuit.Netlist.elements;
  (* children lists from the parent array *)
  let children = Array.make n [] in
  Array.iteri
    (fun node parent ->
      match parent with
      | Some (p, _) -> children.(p) <- node :: children.(p)
      | None -> ())
    parents;
  (* subtree capacitance by post-order accumulation *)
  let subtree = Array.copy cap in
  let rec accumulate node =
    List.iter
      (fun child ->
        accumulate child;
        subtree.(node) <- subtree.(node) +. subtree.(child))
      children.(node)
  in
  (* roots: nodes with no parent *)
  let t_d = Array.make n 0. in
  Array.iteri
    (fun node parent -> if parent = None then accumulate node)
    parents;
  (* pre-order: T_D(child) = T_D(parent) + R_edge * subtree_cap(child) *)
  let rec walk node =
    List.iter
      (fun child ->
        let r =
          match parents.(child) with Some (_, r) -> r | None -> 0.
        in
        t_d.(child) <- t_d.(node) +. (r *. subtree.(child));
        walk child)
      children.(node)
  in
  Array.iteri (fun node parent -> if parent = None then walk node) parents;
  t_d

let delay ckt node = (delays ckt).(node)

let scaled_delay sys ~node =
  let out_var = Circuit.Mna.node_var sys node in
  if out_var < 0 then
    invalid_arg "Elmore.scaled_delay: output cannot be ground";
  let engine = Moments.make sys in
  let op0 = Circuit.Dc.initial sys in
  let op0p = Circuit.Dc.at_zero_plus sys op0 in
  let prob = Moments.base_problem engine op0p in
  let mu = Moments.mu (Moments.vectors engine prob ~count:2) ~out_var in
  if Float.abs mu.(0) < 1e-300 then 0. else -.(mu.(1) /. mu.(0))
