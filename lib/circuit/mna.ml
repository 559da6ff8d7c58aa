open Linalg

type floating_mode = [ `Charge_rows | `Pin_to_zero | `Reject ]

type t = {
  circuit : Netlist.circuit;
  n : int;
  node_var : int array; (* node id -> unknown index; ground -> -1 *)
  branch_var : int array; (* element idx -> branch unknown or -1 *)
  gm : Matrix.t;
  cm : Matrix.t;
  bm : Matrix.t;
  src_elems : int array; (* source column -> element index *)
  charge_rows : int array; (* replaced KCL row per floating group *)
  charge_coeffs : Vec.t array;
}

let circuit m = m.circuit

let size m = m.n

let node_var m node = m.node_var.(node)

let branch_var m idx =
  let v = m.branch_var.(idx) in
  if v < 0 then None else Some v

let g m = Matrix.copy m.gm

let c m = Matrix.copy m.cm

let b m = Matrix.copy m.bm

let c_csr m = Sparse.Csr.of_dense m.cm

let source_count m = Array.length m.src_elems

let source_element m col = m.src_elems.(col)

let source_waveform m col =
  match m.circuit.Netlist.elements.(m.src_elems.(col)) with
  | Element.Vsource { wave; _ } | Element.Isource { wave; _ } -> wave
  | _ -> assert false

let u_at m t =
  Array.init (source_count m) (fun col ->
      Element.eval (source_waveform m col) t)

let voltage m x node =
  let v = m.node_var.(node) in
  if v < 0 then 0. else x.(v)

let charge_group_count m = Array.length m.charge_rows

let charge_coeffs m i = Vec.copy m.charge_coeffs.(i)

let charges_of m x = Array.map (fun q -> Vec.dot q x) m.charge_coeffs

let build ?(floating = `Charge_rows) (ckt : Netlist.circuit) =
  let nnodes = ckt.Netlist.node_count in
  let node_var =
    Array.init nnodes (fun node -> if node = Element.ground then -1 else node - 1)
  in
  let nv = nnodes - 1 in
  (* assign branch-current unknowns *)
  let nelems = Array.length ckt.Netlist.elements in
  let branch_var = Array.make nelems (-1) in
  let next = ref nv in
  Array.iteri
    (fun idx e ->
      match e with
      | Element.Vsource _ | Element.Inductor _ | Element.Vcvs _
      | Element.Ccvs _ ->
        branch_var.(idx) <- !next;
        incr next
      | Element.Resistor _ | Element.Capacitor _ | Element.Isource _
      | Element.Vccs _ | Element.Cccs _ | Element.Mutual _ -> ())
    ckt.Netlist.elements;
  let n = !next in
  let src_elems =
    Array.of_list
      (List.filter_map
         (fun (i, e) ->
           match e with
           | Element.Vsource _ | Element.Isource _ -> Some i
           | _ -> None)
         (Array.to_list ckt.Netlist.elements |> List.mapi (fun i e -> (i, e))))
  in
  let src_col = Array.make nelems (-1) in
  Array.iteri (fun col idx -> src_col.(idx) <- col) src_elems;
  let gm = Matrix.create n n in
  let cm = Matrix.create n n in
  let bm = Matrix.create n (Array.length src_elems) in
  let nvar node = node_var.(node) in
  let stamp mat i j v = if i >= 0 && j >= 0 then Matrix.add_to mat i j v in
  let stamp_b i col v = if i >= 0 then Matrix.add_to bm i col v in
  let branch_of_vsource name =
    let key = String.lowercase_ascii name in
    let found = ref (-1) in
    Array.iteri
      (fun idx e ->
        match e with
        | Element.Vsource { name = n'; _ }
          when String.lowercase_ascii n' = key -> found := branch_var.(idx)
        | _ -> ())
      ckt.Netlist.elements;
    if !found < 0 then
      invalid_arg ("Mna: unknown controlling source " ^ name);
    !found
  in
  Array.iteri
    (fun idx e ->
      match e with
      | Element.Resistor { np; nn; r; _ } ->
        let gcond = 1. /. r in
        let p = nvar np and q = nvar nn in
        stamp gm p p gcond;
        stamp gm q q gcond;
        stamp gm p q (-.gcond);
        stamp gm q p (-.gcond)
      | Element.Capacitor { np; nn; c; _ } ->
        let p = nvar np and q = nvar nn in
        stamp cm p p c;
        stamp cm q q c;
        stamp cm p q (-.c);
        stamp cm q p (-.c)
      | Element.Inductor { np; nn; l; _ } ->
        let ib = branch_var.(idx) in
        let p = nvar np and q = nvar nn in
        (* KCL: current ib leaves np, enters nn *)
        stamp gm p ib 1.;
        stamp gm q ib (-1.);
        (* branch: v_np - v_nn - L di/dt = 0 *)
        stamp gm ib p 1.;
        stamp gm ib q (-1.);
        Matrix.add_to cm ib ib (-.l)
      | Element.Vsource { np; nn; _ } ->
        let ib = branch_var.(idx) in
        let p = nvar np and q = nvar nn in
        stamp gm p ib 1.;
        stamp gm q ib (-1.);
        stamp gm ib p 1.;
        stamp gm ib q (-1.);
        (* branch: v_np - v_nn = u *)
        stamp_b ib src_col.(idx) 1.
      | Element.Isource { np; nn; _ } ->
        (* current u flows np -> nn through the source: KCL at np gets
           +u leaving, moved to the right-hand side *)
        let p = nvar np and q = nvar nn in
        stamp_b p src_col.(idx) (-1.);
        stamp_b q src_col.(idx) 1.
      | Element.Vcvs { np; nn; cp; cn; gain; _ } ->
        let ib = branch_var.(idx) in
        let p = nvar np and q = nvar nn in
        stamp gm p ib 1.;
        stamp gm q ib (-1.);
        stamp gm ib p 1.;
        stamp gm ib q (-1.);
        stamp gm ib (nvar cp) (-.gain);
        stamp gm ib (nvar cn) gain
      | Element.Vccs { np; nn; cp; cn; gm = transconductance; _ } ->
        let p = nvar np and q = nvar nn in
        stamp gm p (nvar cp) transconductance;
        stamp gm p (nvar cn) (-.transconductance);
        stamp gm q (nvar cp) (-.transconductance);
        stamp gm q (nvar cn) transconductance
      | Element.Ccvs { np; nn; vctrl; r; _ } ->
        let ib = branch_var.(idx) in
        let p = nvar np and q = nvar nn in
        stamp gm p ib 1.;
        stamp gm q ib (-1.);
        stamp gm ib p 1.;
        stamp gm ib q (-1.);
        Matrix.add_to gm ib (branch_of_vsource vctrl) (-.r)
      | Element.Cccs { np; nn; vctrl; gain; _ } ->
        let p = nvar np and q = nvar nn in
        let ictrl = branch_of_vsource vctrl in
        stamp gm p ictrl gain;
        stamp gm q ictrl (-.gain)
      | Element.Mutual { l1; l2; k; name } ->
        (* v_1 gains -M di_2/dt and vice versa: off-diagonal entries in
           the energy-storage matrix at the two branch currents *)
        let find_inductor lname =
          let key = String.lowercase_ascii lname in
          let res = ref None in
          Array.iteri
            (fun i e' ->
              match e' with
              | Element.Inductor { name = n'; l; _ }
                when String.lowercase_ascii n' = key ->
                res := Some (branch_var.(i), l)
              | _ -> ())
            ckt.Netlist.elements;
          match !res with
          | Some r -> r
          | None -> invalid_arg ("Mna: unknown coupled inductor in " ^ name)
        in
        let ib1, lv1 = find_inductor l1 in
        let ib2, lv2 = find_inductor l2 in
        let mv = k *. sqrt (lv1 *. lv2) in
        (* inductor branch rows read v_p - v_n - L di/dt - M di_other/dt *)
        Matrix.add_to cm ib1 ib2 (-.mv);
        Matrix.add_to cm ib2 ib1 (-.mv))
    ckt.Netlist.elements;
  (* floating-group treatment *)
  let groups = Topology.floating_groups ckt in
  (match (floating, groups) with
  | `Reject, _ :: _ ->
    invalid_arg "Mna: circuit has floating node groups (no DC path to ground)"
  | _ -> ());
  let charge_rows = ref [] in
  let charge_coeffs = ref [] in
  List.iter
    (fun group ->
      match group with
      | [] -> ()
      | rep :: _ ->
        let row = nvar rep in
        if row < 0 then () (* cannot happen: ground is never floating *)
        else begin
          (* a current source driving a floating group would violate
             charge conservation *)
          List.iter
            (fun node ->
              let v = nvar node in
              if v >= 0 then
                for col = 0 to Array.length src_elems - 1 do
                  (match
                     ckt.Netlist.elements.(src_elems.(col))
                   with
                  | Element.Isource { name; _ }
                    when Matrix.get bm v col <> 0. ->
                    invalid_arg
                      (Printf.sprintf
                         "Mna: current source %s drives the floating node \
                          group at %s"
                         name ckt.Netlist.node_names.(node))
                  | _ -> ())
                done)
            group;
          match floating with
          | `Charge_rows ->
            (* conserved charge = sum of the group's C rows *)
            let coeffs = Vec.create n in
            List.iter
              (fun node ->
                let v = nvar node in
                if v >= 0 then
                  for j = 0 to n - 1 do
                    coeffs.(j) <- coeffs.(j) +. Matrix.get cm v j
                  done)
              group;
            charge_rows := row :: !charge_rows;
            charge_coeffs := coeffs :: !charge_coeffs
          | `Pin_to_zero ->
            let coeffs = Vec.create n in
            coeffs.(row) <- 1.;
            charge_rows := row :: !charge_rows;
            charge_coeffs := coeffs :: !charge_coeffs
          | `Reject -> assert false
        end)
    groups;
  { circuit = ckt;
    n;
    node_var;
    branch_var;
    gm;
    cm;
    bm;
    src_elems;
    charge_rows = Array.of_list (List.rev !charge_rows);
    charge_coeffs = Array.of_list (List.rev !charge_coeffs) }

(* ------------------------------------------------------------------ *)
(* DC solves with floating-row replacement *)

exception Singular_dc of string

(* human-readable name of unknown [v]: the node voltages come first,
   then one branch current per voltage-defined element *)
let describe_var m v =
  if v < 0 || v >= m.n then Printf.sprintf "unknown #%d" v
  else begin
    let found = ref None in
    Array.iteri
      (fun node var -> if var = v && !found = None then found := Some node)
      m.node_var;
    match !found with
    | Some node ->
      Printf.sprintf "node %s" m.circuit.Netlist.node_names.(node)
    | None ->
      let elem = ref None in
      Array.iteri
        (fun idx var -> if var = v && !elem = None then elem := Some idx)
        m.branch_var;
      (match !elem with
      | Some idx ->
        Printf.sprintf "branch current of %s"
          (Element.name m.circuit.Netlist.elements.(idx))
      | None -> Printf.sprintf "unknown #%d" v)
  end

type dc_solver = {
  sys : t;
  solver : [ `Dense of Lu.t | `Sparse of Sparse.Slu.t ];
  dc_symbolic : Sparse.Slu.symbolic option;
      (* the analysis the sparse path factored through, for reuse by
         structurally identical systems *)
}

let augmented_g m =
  let ga = Matrix.copy m.gm in
  Array.iteri
    (fun i row ->
      let coeffs = m.charge_coeffs.(i) in
      for j = 0 to m.n - 1 do
        Matrix.set ga row j coeffs.(j)
      done)
    m.charge_rows;
  ga

let singular_dc m v =
  raise
    (Singular_dc
       (Printf.sprintf
          "DC conductance matrix is singular at %s (no unique DC solution)"
          (describe_var m v)))

let dc_factor ?(sparse = false) ?symbolic m =
  let ga = augmented_g m in
  if sparse then begin
    let a = Sparse.Csr.of_dense ga in
    (* reuse a caller-supplied analysis only when this matrix has
       exactly the pattern it was derived from; otherwise analyze
       fresh.  Either way the numeric phase is the same [refactor],
       so a reused symbolic changes nothing numerically. *)
    let sym =
      match symbolic with
      | Some s when Sparse.Slu.pattern_matches s a -> s
      | _ -> (
        try Sparse.Slu.symbolic a
        with Sparse.Slu.Singular v -> singular_dc m v)
    in
    let f =
      try Sparse.Slu.refactor sym a
      with Sparse.Slu.Singular v -> singular_dc m v
    in
    { sys = m; solver = `Sparse f; dc_symbolic = Some sym }
  end
  else
    let f = try Lu.factor ga with Lu.Singular v -> singular_dc m v in
    { sys = m; solver = `Dense f; dc_symbolic = None }

let dc_symbolic s = s.dc_symbolic

let dc_solve s ~rhs ~charges =
  let m = s.sys in
  if Array.length charges <> Array.length m.charge_rows then
    invalid_arg "Mna.dc_solve: wrong number of charge values";
  let rhs' = Vec.copy rhs in
  Array.iteri (fun i row -> rhs'.(row) <- charges.(i)) m.charge_rows;
  match s.solver with
  | `Dense f -> Lu.solve f rhs'
  | `Sparse f -> Sparse.Slu.solve f rhs'

(* ------------------------------------------------------------------ *)

let state_derivative m ~x ~u =
  (* dynamic positions: any row/column of C with a nonzero entry *)
  let dynamic = Array.make m.n false in
  for i = 0 to m.n - 1 do
    for j = 0 to m.n - 1 do
      if Matrix.get m.cm i j <> 0. then begin
        dynamic.(i) <- true;
        dynamic.(j) <- true
      end
    done
  done;
  let idx = ref [] in
  for i = m.n - 1 downto 0 do
    if dynamic.(i) then idx := i :: !idx
  done;
  let idx = Array.of_list !idx in
  let nd = Array.length idx in
  if nd = 0 then Some (Vec.create m.n, Array.make m.n false)
  else begin
    let csub = Matrix.submatrix m.cm idx idx in
    let residual = Vec.sub (Matrix.mul_vec m.bm u) (Matrix.mul_vec m.gm x) in
    let rsub = Array.map (fun i -> residual.(i)) idx in
    (* the capacitance block is symmetric positive definite, so try the
       cheaper Cholesky first; inductor rows carry -L on the diagonal
       and fall back to LU *)
    let solve_sub () =
      if Matrix.is_symmetric ~tol:0. csub then
        match Cholesky.factor csub with
        | f -> Some (Cholesky.solve f rsub)
        | exception Cholesky.Not_positive_definite _ -> (
          match Lu.factor csub with
          | f -> Some (Lu.solve f rsub)
          | exception Lu.Singular _ -> None)
      else
        match Lu.factor csub with
        | f -> Some (Lu.solve f rsub)
        | exception Lu.Singular _ -> None
    in
    match solve_sub () with
    | Some dsub ->
      let out = Vec.create m.n in
      let mask = Array.make m.n false in
      Array.iteri
        (fun k i ->
          out.(i) <- dsub.(k);
          mask.(i) <- true)
        idx;
      Some (out, mask)
    | None -> None
  end
