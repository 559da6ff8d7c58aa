exception Singular of int

module Iset = Set.Make (Int)

(* Greedy minimum-degree ordering on the symmetrized nonzero pattern:
   eliminating low-degree vertices first keeps the LU factors of
   tree-like circuit matrices nearly fill-free.

   The pivot pick uses degree buckets — doubly-linked vertex lists
   threaded through [bnext]/[bprev], one list per degree, with a
   monotone-up minimum-degree cursor — so selecting each pivot is
   O(1) amortized instead of the former O(n) scan over all remaining
   vertices (which made the ordering itself quadratic on large meshes
   and dominated the factorization it was meant to cheapen).  The
   elimination-graph update keeps the invariant that [adj.(v)] holds
   only live (uneliminated) vertices, so a vertex's degree is exactly
   [Iset.cardinal adj.(v)] and bucket moves happen only for the
   pivot's neighbors — the vertices whose degree can change. *)
let min_degree_order a =
  let n = Csr.rows a in
  let adj = Array.make n Iset.empty in
  for i = 0 to n - 1 do
    Csr.row_iter a i (fun j _ ->
        if i <> j then begin
          adj.(i) <- Iset.add j adj.(i);
          adj.(j) <- Iset.add i adj.(j)
        end)
  done;
  (* degree buckets: head.(d) is the first vertex of degree d, the
     rest chained through bnext/bprev (-1 terminates) *)
  let head = Array.make (Stdlib.max n 1) (-1) in
  let bnext = Array.make n (-1) in
  let bprev = Array.make n (-1) in
  let deg = Array.make n 0 in
  let bucket_insert v d =
    deg.(v) <- d;
    bnext.(v) <- head.(d);
    bprev.(v) <- -1;
    if head.(d) >= 0 then bprev.(head.(d)) <- v;
    head.(d) <- v
  in
  let bucket_remove v =
    let d = deg.(v) in
    if bprev.(v) >= 0 then bnext.(bprev.(v)) <- bnext.(v)
    else head.(d) <- bnext.(v);
    if bnext.(v) >= 0 then bprev.(bnext.(v)) <- bprev.(v)
  in
  for v = 0 to n - 1 do
    bucket_insert v (Iset.cardinal adj.(v))
  done;
  let order = Array.make n 0 in
  let mind = ref 0 in
  for k = 0 to n - 1 do
    (* the cursor only moves up here; eliminations that lower a
       neighbor's degree pull it back down at the bucket move *)
    while head.(!mind) < 0 do
      incr mind
    done;
    let v = head.(!mind) in
    bucket_remove v;
    order.(k) <- v;
    let nbrs = adj.(v) in
    adj.(v) <- Iset.empty;
    (* connect the neighbors of v into a clique (the fill v causes) *)
    Iset.iter
      (fun w ->
        let adj_w = Iset.union (Iset.remove v adj.(w)) (Iset.remove w nbrs) in
        adj.(w) <- adj_w;
        let d = Iset.cardinal adj_w in
        if d <> deg.(w) then begin
          bucket_remove w;
          bucket_insert w d;
          if d < !mind then mind := d
        end)
      nbrs
  done;
  order

(* ------------------------------------------------------------------ *)
(* Symbolic analysis: everything about the factorization that depends
   on the nonzero pattern alone — the fill-reducing ordering, a static
   pivot assignment, the per-column elimination (reach) sets, and a
   scatter map from the matrix's stored entries into pivot positions.
   Matrices sharing a pattern share one symbolic analysis; [refactor]
   replays only the numeric phase. *)

type symbolic = {
  sn : int;
  sord : int array;  (* fill-reducing symmetric permutation *)
  srow_of_pos : int array;  (* pivot position -> permuted row *)
  (* the analyzed pattern, in original numbering, for validation *)
  srow_ptr : int array;
  scol_idx : int array;
  snnz : int;
  (* permuted column j: destination pivot positions and source entry
     indices (into [Csr.values]) of the matrix entries it scatters *)
  sscat_pos : int array array;
  sscat_idx : int array array;
  (* pivotal update positions of column j, in topological order (an
     update's source column precedes every column it fills) *)
  stopo : int array array;
  (* L rows of column j (positions > j), ascending *)
  slpat : int array array;
}

(* Static pivot assignment: a perfect matching between pivot positions
   (columns of the permuted matrix) and permuted rows, placing every
   pivot on a stored entry.  Diagonal entries are claimed first — for
   the diagonally dominant node block of an MNA matrix the diagonal is
   also the numerically dominant choice — and Kuhn augmenting paths
   place the rest (the zero-diagonal branch rows of voltage-defined
   elements).  Failure to match a column is a structural-rank
   certificate: no value assignment makes the matrix nonsingular. *)
let static_pivots ~n ~col_rows ~ord =
  let row_match = Array.make n (-1) in
  (* column -> matched row *)
  let col_match = Array.make n (-1) in
  for j = 0 to n - 1 do
    if col_match.(j) < 0 && row_match.(j) < 0 then
      if Array.exists (fun r -> r = j) col_rows.(j) then begin
        col_match.(j) <- j;
        row_match.(j) <- j
      end
  done;
  let stamp = Array.make n (-1) in
  let rec augment epoch j =
    let rows = col_rows.(j) in
    let nr = Array.length rows in
    let rec try_row t =
      if t >= nr then false
      else begin
        let r = rows.(t) in
        if stamp.(r) <> epoch then begin
          stamp.(r) <- epoch;
          if row_match.(r) < 0 || augment epoch row_match.(r) then begin
            row_match.(r) <- j;
            col_match.(j) <- r;
            true
          end
          else try_row (t + 1)
        end
        else try_row (t + 1)
      end
    in
    try_row 0
  in
  for j = 0 to n - 1 do
    if col_match.(j) < 0 && not (augment j j) then
      (* structurally singular; report in original numbering *)
      raise (Singular ord.(j))
  done;
  (row_match, col_match)

let symbolic ?order a =
  let n = Csr.rows a in
  if Csr.cols a <> n then invalid_arg "Slu.symbolic: matrix not square";
  let ord =
    match order with
    | None -> min_degree_order a
    | Some o ->
      if Array.length o <> n then
        invalid_arg "Slu.symbolic: order is not a permutation of the columns";
      o
  in
  let inv_ord = Array.make n 0 in
  Array.iteri (fun pos v -> inv_ord.(v) <- pos) ord;
  let row_ptr, col_idx = Csr.pattern a in
  let nnz = row_ptr.(n) in
  (* permuted CSC with original entry indices: entry k of original row
     [i], column [c] lands in permuted column [inv_ord.(c)] at
     permuted row [inv_ord.(i)] *)
  let col_count = Array.make n 0 in
  for i = 0 to n - 1 do
    for k = row_ptr.(i) to row_ptr.(i + 1) - 1 do
      let pj = inv_ord.(col_idx.(k)) in
      col_count.(pj) <- col_count.(pj) + 1
    done
  done;
  let col_rows = Array.init n (fun j -> Array.make col_count.(j) 0) in
  let col_entry = Array.init n (fun j -> Array.make col_count.(j) 0) in
  let cursor = Array.make n 0 in
  for i = 0 to n - 1 do
    let pi = inv_ord.(i) in
    for k = row_ptr.(i) to row_ptr.(i + 1) - 1 do
      let pj = inv_ord.(col_idx.(k)) in
      let t = cursor.(pj) in
      col_rows.(pj).(t) <- pi;
      col_entry.(pj).(t) <- k;
      cursor.(pj) <- t + 1
    done
  done;
  let row_match, col_match = static_pivots ~n ~col_rows ~ord in
  let pos_of_row = row_match and row_of_pos = col_match in
  (* scatter map in pivot positions *)
  let sscat_pos =
    Array.map (fun rows -> Array.map (fun r -> pos_of_row.(r)) rows) col_rows
  in
  (* per-column reach sets under the static pivot order *)
  let slpat = Array.make n [||] in
  let stopo = Array.make n [||] in
  let seen = Array.make n (-1) in
  let touched = Array.make n 0 in
  let is_touched = Array.make n (-1) in
  for j = 0 to n - 1 do
    let ntouched = ref 0 in
    let touch p =
      if is_touched.(p) <> j then begin
        is_touched.(p) <- j;
        touched.(!ntouched) <- p;
        incr ntouched
      end
    in
    let topo = ref [] in
    let rec dfs k =
      if seen.(k) <> j then begin
        seen.(k) <- j;
        Array.iter
          (fun r ->
            touch r;
            if r < j then dfs r)
          slpat.(k);
        topo := k :: !topo
      end
    in
    Array.iter
      (fun p ->
        touch p;
        if p < j then dfs p)
      sscat_pos.(j);
    (* position [j] is always reached: the static pivot sits on a
       stored entry of column [j] by construction *)
    let ls = ref [] in
    for t = !ntouched - 1 downto 0 do
      let p = touched.(t) in
      if p > j then ls := p :: !ls
    done;
    let lpat = Array.of_list !ls in
    Array.sort compare lpat;
    slpat.(j) <- lpat;
    stopo.(j) <- Array.of_list !topo
  done;
  { sn = n;
    sord = ord;
    srow_of_pos = row_of_pos;
    srow_ptr = row_ptr;
    scol_idx = col_idx;
    snnz = nnz;
    sscat_pos;
    sscat_idx = col_entry;
    stopo;
    slpat }

let same_analysis a b =
  a == b
  || a.sn = b.sn && a.snnz = b.snnz
     && (a.srow_ptr == b.srow_ptr
        || Array.for_all2 (fun x y -> x = y) a.srow_ptr b.srow_ptr)
     && (a.scol_idx == b.scol_idx
        ||
        let rec eq k =
          k >= a.snnz || (a.scol_idx.(k) = b.scol_idx.(k) && eq (k + 1))
        in
        eq 0)

let pattern_matches s a =
  Csr.rows a = s.sn && Csr.cols a = s.sn
  &&
  let row_ptr, col_idx = Csr.pattern a in
  row_ptr == s.srow_ptr && col_idx == s.scol_idx
  || row_ptr.(s.sn) = s.snnz
     && (let ok = ref true in
         let i = ref 0 in
         while !ok && !i <= s.sn do
           if row_ptr.(!i) <> s.srow_ptr.(!i) then ok := false;
           incr i
         done;
         let k = ref 0 in
         while !ok && !k < s.snnz do
           if col_idx.(!k) <> s.scol_idx.(!k) then ok := false;
           incr k
         done;
         !ok)

(* first structural difference between the symbolic's pattern and a
   matrix's, described by the column (and row) where they diverge *)
let describe_mismatch s a =
  let row_ptr, col_idx = Csr.pattern a in
  let exception Found of string in
  try
    if Csr.rows a <> s.sn || Csr.cols a <> s.sn then
      raise
        (Found
           (Printf.sprintf "matrix is %dx%d but the symbolic analyzed %dx%d"
              (Csr.rows a) (Csr.cols a) s.sn s.sn));
    for i = 0 to s.sn - 1 do
      let s0 = s.srow_ptr.(i) and s1 = s.srow_ptr.(i + 1) in
      let m0 = row_ptr.(i) and m1 = row_ptr.(i + 1) in
      let ls = s1 - s0 and lm = m1 - m0 in
      for t = 0 to Stdlib.min ls lm - 1 do
        let cs = s.scol_idx.(s0 + t) and cm = col_idx.(m0 + t) in
        if cs <> cm then
          raise
            (Found
               (Printf.sprintf
                  "first mismatch in column %d of row %d (the symbolic \
                   expects column %d)"
                  cm i cs))
      done;
      if lm > ls then
        raise
          (Found
             (Printf.sprintf "first mismatch in column %d of row %d (entry \
                              absent from the symbolic pattern)"
                col_idx.(m0 + ls) i))
      else if ls > lm then
        raise
          (Found
             (Printf.sprintf "first mismatch in column %d of row %d (entry \
                              missing from the matrix)"
                s.scol_idx.(s0 + lm) i))
    done;
    "patterns are identical"
  with Found msg -> msg

type t = {
  n : int;
  (* L is unit lower triangular, stored by column in pivot-position row
     indices (strictly below the diagonal); U is upper triangular with
     the diagonal stored separately.  The factorization applies to the
     symmetrically permuted matrix A(ord, ord). *)
  l_cols : (int * float) array array;
  u_cols : (int * float) array array;
  u_diag : float array;
  row_of_pos : int array; (* pivot position -> permuted row index *)
  ord : int array; (* fill-reducing symmetric permutation *)
}

let dim f = f.n

let nnz_factors f =
  let count cols =
    Array.fold_left (fun acc c -> acc + Array.length c) 0 cols
  in
  count f.l_cols + count f.u_cols + f.n

let refactor s a =
  if not (pattern_matches s a) then
    invalid_arg ("Slu.refactor: pattern mismatch: " ^ describe_mismatch s a);
  let n = s.sn in
  let vals = Csr.values a in
  let l_cols = Array.make n [||] in
  let u_cols = Array.make n [||] in
  let u_diag = Array.make n 0. in
  (* dense accumulator over pivot positions; cleared per column via the
     symbolic reach sets, which cover every scattered and filled
     position.  Inner loops use unchecked accesses: every index is a
     pivot position in [0, n) fixed by the symbolic analysis, and the
     dimension agreement with [a] was checked above. *)
  let x = Array.make n 0. in
  for j = 0 to n - 1 do
    let spos = s.sscat_pos.(j) and sidx = s.sscat_idx.(j) in
    let nscat = Array.length spos in
    for t = 0 to nscat - 1 do
      let p = Array.unsafe_get spos t in
      Array.unsafe_set x p
        (Array.unsafe_get x p +. Array.unsafe_get vals (Array.unsafe_get sidx t))
    done;
    (* numeric left-looking updates in topological order *)
    let topo = s.stopo.(j) in
    let ntopo = Array.length topo in
    for t = 0 to ntopo - 1 do
      let k = Array.unsafe_get topo t in
      let xk = Array.unsafe_get x k in
      if xk <> 0. then begin
        let lk = Array.unsafe_get l_cols k in
        let nl = Array.length lk in
        for u = 0 to nl - 1 do
          let r, m = Array.unsafe_get lk u in
          Array.unsafe_set x r (Array.unsafe_get x r -. (m *. xk))
        done
      end
    done;
    let pivot = x.(j) in
    (* the pivot is structurally present but its value can still cancel
       to zero; report in original numbering like [factor] *)
    if pivot = 0. then raise (Singular s.sord.(j));
    u_diag.(j) <- pivot;
    u_cols.(j) <- Array.map (fun k -> (k, x.(k))) s.stopo.(j);
    l_cols.(j) <- Array.map (fun r -> (r, x.(r) /. pivot)) s.slpat.(j);
    (* reset the accumulator over exactly the touched positions *)
    x.(j) <- 0.;
    Array.iter (fun k -> x.(k) <- 0.) s.stopo.(j);
    Array.iter (fun r -> x.(r) <- 0.) s.slpat.(j)
  done;
  { n; l_cols; u_cols; u_diag; row_of_pos = s.srow_of_pos; ord = s.sord }

let factor ?order a = refactor (symbolic ?order a) a

let solve f b =
  let n = f.n in
  if Array.length b <> n then invalid_arg "Slu.solve: dimension mismatch";
  (* y = P (b permuted by the fill-reducing ordering) *)
  let y = Array.init n (fun k -> b.(f.ord.(f.row_of_pos.(k)))) in
  (* forward: L y' = y, unit diagonal, column-oriented.  Stored row
     indices are pivot positions in [0, n) by construction and [y] has
     length [n] (checked above), so the inner loops skip bounds
     checks. *)
  let l_cols = f.l_cols in
  for k = 0 to n - 1 do
    let yk = Array.unsafe_get y k in
    if yk <> 0. then begin
      let lk = Array.unsafe_get l_cols k in
      let nl = Array.length lk in
      for t = 0 to nl - 1 do
        let i, m = Array.unsafe_get lk t in
        Array.unsafe_set y i (Array.unsafe_get y i -. (m *. yk))
      done
    end
  done;
  (* backward: U x = y', column-oriented *)
  let u_cols = f.u_cols and u_diag = f.u_diag in
  for k = n - 1 downto 0 do
    let yk = Array.unsafe_get y k /. Array.unsafe_get u_diag k in
    Array.unsafe_set y k yk;
    if yk <> 0. then begin
      let uk = Array.unsafe_get u_cols k in
      let nu = Array.length uk in
      for t = 0 to nu - 1 do
        let i, u = Array.unsafe_get uk t in
        Array.unsafe_set y i (Array.unsafe_get y i -. (u *. yk))
      done
    end
  done;
  (* undo the column side of the symmetric permutation *)
  let x = Array.make n 0. in
  for k = 0 to n - 1 do
    x.(f.ord.(k)) <- y.(k)
  done;
  x

let solve_system a b = solve (factor a) b
